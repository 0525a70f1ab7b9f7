import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

import worked_examples as wx
from preorder_bca import (
    GroundSet,
    Preorder,
    TooLarge,
    bca_auto,
    bca_bruteforce,
    bca_duality,
    bca_theorem5,
    canonical_completion,
    condition_star,
    covering_radius,
    index_general,
    index_total,
    is_maximal_completion,
    enumerate_preorders,
    top_difference_fast,
)
from preorder_bca import _backend
from preorder_bca.core import iter_bits
from bases import SHAPES, blow_up
from worked_examples import spec
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
    assert report2.index == 40

    for k in (3, 4):
        report = bca_duality(wx.example7_base(k))
        _, c1 = wx.example7_completions(k)
        assert [c.blocks for c in report.bca_set] == [c1.blocks]


def test_bca_example8():
    report = bca_duality(wx.example8_base())
    assert [c.blocks for c in report.bca_set] == [wx.example8_named()[1].blocks]
    assert report.index == 2**7 + 194


def test_bca_total_base_is_itself():
    total = spec("coordinatewise", m=2).expected_bca()
    report = bca_bruteforce(total)
    assert report.bca_set == (total,)
    assert report.distance == 0


def test_three_member_tie_ten_elements():
    # ten elements: too big to sweep every total preorder, but the duality
    # route needs only the completions; the three named completions tie
    base = wx.three_member_tie_base()
    named = wx.three_member_tie_completions()
    distances = {top_difference_fast(base, c) for c in named}
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
        assert dual.index == index_general(base)


def test_every_bca_member_is_maximal_exhaustive_n3():
    ground = GroundSet(("a", "b", "c"))
    for base in enumerate_preorders(ground):
        for cand in bca_bruteforce(base).bca_set:
            assert is_maximal_completion(cand, base)


def test_condition_star_linear_orders():
    for n in (2, 4, 6):
        assert condition_star(spec("chain", n=n).build()).verdict == "strict"


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
    report = bca_theorem5(spec("containment", z=3).build())
    assert report is not None and report.complete_set
    assert report.bca_set == (spec("containment", z=3).expected_bca(),)

    report = bca_theorem5(spec("word_prefix", alphabet=2, k=2).build())
    assert report is not None and report.complete_set
    assert report.bca_set == (spec("word_prefix", alphabet=2, k=2).expected_bca(),)

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


# (strict, weak, fails with canonical optimal, canonical not optimal) per n
THEOREM5_CENSUS = {1: (1, 0, 0, 0), 2: (4, 0, 0, 0), 3: (29, 0, 0, 0),
                   4: (331, 24, 0, 0), 5: (5762, 840, 240, 100)}


def test_theorem5_over_every_preorder_up_to_5():
    # strict: the canonical completion is the whole tie set; weak: it is in
    # it.  The tie sets are checked against brute force while n <= 4.
    for n, expected in THEOREM5_CENSUS.items():
        counts = [0, 0, 0, 0]
        ground = GroundSet(tuple(f"x{i}" for i in range(n)))
        for base in enumerate_preorders(ground, max_n=5):
            verdict = condition_star(base).verdict
            ties = bca_duality(base).bca_set
            canonical = canonical_completion(base)
            if verdict == "strict":
                assert ties == (canonical,)
                counts[0] += 1
            elif verdict == "weak":
                assert canonical in ties
                counts[1] += 1
            else:
                counts[2 if canonical in ties else 3] += 1
            if n <= 4:
                assert bca_bruteforce(base).bca_set == ties
        assert tuple(counts) == expected, n


def test_bca_auto_routes():
    strict = bca_auto(spec("containment", z=2).build())
    assert strict.method == "theorem5"
    weak = bca_auto(wx.example5_base())
    assert weak.method == "duality"
    assert len(weak.bca_set) == 2
    fails = bca_auto(wx.example8_base())
    assert fails.method == "duality"
    # the report carries the verdict that chose the route
    for report, base in ((strict, spec("containment", z=2).build()),
                         (weak, wx.example5_base()),
                         (fails, wx.example8_base())):
        assert report.condition_star == condition_star(base)
        assert report.complete_set


def test_condition_star_guard_counts_the_classes_a_layer_sweeps():
    # fence(8)'s top layer holds four classes, each above one or two bottoms
    report = condition_star(spec("fence", k=8).build())
    assert (report.verdict, report.witnesses) == ("strict", ())
    # 64 classes with nothing below are not swept at all
    assert condition_star(spec("equality", n=64).build()).verdict == "strict"


def test_condition_star_lists_only_the_least_s_per_y():
    # a is above the class y1..y4, and c and d are each above z.  S = {a}
    # binds: index 64 against bound 32.  {a,c} and {a,d} have the same Y and
    # a larger S, so their pairs are implied by {a}'s and are not listed
    ys = [f"y{i}" for i in range(1, 5)]
    base = wx.closure_preorder(
        ["a", "c", "d", *ys, "z"],
        [("a", ys[0]), *((y, v) for y in ys for v in ys), ("c", "z"), ("d", "z")])
    report = condition_star(base)
    labels = base.ground.label_set
    assert report.verdict == "fails"
    assert [(w.layer, labels(w.subset), labels(w.below), w.index_value, w.bound)
            for w in report.witnesses] == [(1, ("a",), tuple(ys), 64, 32)]


def test_condition_star_prices_antichain_leaves_as_one_block():
    # 16 tops, each above 3 leaves of its own (64 elements).  Every Y is an
    # antichain of leaves, whose one maximal completion is a single block, so
    # the inner index tries that block alone rather than every split
    tops = [f"t{t}" for t in range(16)]
    leaves = {t: [f"{t}_{j}" for j in range(3)] for t in tops}
    base = wx.closure_preorder([*tops, *(x for t in tops for x in leaves[t])],
                               [(t, x) for t in tops for x in leaves[t]])
    report = condition_star(base)
    assert (report.verdict, len(report.witnesses)) == ("fails", 696)
    w = report.witnesses[0]
    assert (w.layer, w.subset.bit_count(), w.below.bit_count(), w.index_value,
            w.bound) == (1, 1, 3, 24, 16)


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


def test_covering_radius_builds_only_the_witness(monkeypatch):
    # the pruned rows are already transitive: one Preorder, for the witness
    from preorder_bca.core import Preorder

    built = []
    check = Preorder.__post_init__
    monkeypatch.setattr(Preorder, "__post_init__",
                        lambda self: (built.append(self.rows), check(self)))
    report = covering_radius(GroundSet(("x1", "x2", "x3", "x4")))
    assert built == [report.witness.rows]
    assert report.witness in set(enumerate_preorders(report.witness.ground))


def test_report_invariants(rng):
    for _ in range(10):
        base = random_preorder(rng, 4)
        report = bca_bruteforce(base)
        for cand in report.bca_set:
            assert top_difference_fast(base, cand) == report.distance
            assert index_total(cand) == report.index


def naive_bruteforce(base, candidates):
    # object-level reimplementation, independent of the sweep kernel;
    # candidates are the total preorders in enumeration order, and the
    # argmin keeps that order
    best = None
    argmin = []
    for cand in candidates:
        d = top_difference_fast(base, cand)
        if best is None or d < best:
            best, argmin = d, [cand.blocks]
        elif d == best:
            argmin.append(cand.blocks)
    return best, argmin


def test_sweep_kernel_matches_naive_loop(rng):
    # every preorder on 1..4 elements, then seeded random ones on 5 and 6:
    # the kernel prices a last block, a lone last element and the three
    # leaves of a two-element rest without a recursive call, and its block
    # costs build on each other, so a slip shows only on some bases and
    # some depths.  The tie list must come in enumeration order, which the
    # scan shares with enumerate_total_preorders.
    from preorder_bca import enumerate_total_preorders

    grounds = {n: GroundSet(tuple(f"x{t}" for t in range(1, n + 1)))
               for n in range(1, 7)}
    bases = [p for n in range(1, 5) for p in enumerate_preorders(grounds[n])]
    assert len(bases) == 1 + 4 + 29 + 355
    for n, count in ((5, 30), (6, 5)):
        bases += [random_preorder(rng, n, rng.choice([0.1, 0.3, 0.5]))
                  for _ in range(count)]
    # no base on 5 or fewer elements has more than two ties; this one has
    # three: x4 above x1, x2, x3, x6, and x6 above x2, x3
    bases.append(Preorder(grounds[6], (0b1, 0b10, 0b100, 0b101111, 0b10000, 0b100110)))
    candidates = {n: list(enumerate_total_preorders(ground))
                  for n, ground in grounds.items()}
    most_ties = 0
    for base in bases:
        want_d, want_ties = naive_bruteforce(base, candidates[base.n])
        distance, ties = _backend.sweep_min_distance(base.n, base.strict_up)
        assert len(set(ties)) == len(ties)
        assert distance == want_d
        assert ties == want_ties
        most_ties = max(most_ties, len(ties))
        report = bca_bruteforce(base)
        assert report.distance == want_d
        assert [c.blocks for c in report.bca_set] == sorted(want_ties)
    assert most_ties >= 3


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
    base = spec("chain", n=3).build()
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


def _hard_base(shape: str, n: int, seed: int, classes: bool) -> Preorder:
    """A ``tests/bases.py`` base; with ``classes``, its blow-up."""
    rows = blow_up(shape, seed, n) if classes else SHAPES[shape](seed, n)
    return Preorder(GroundSet(tuple(f"x{i}" for i in range(1, n + 1))), tuple(rows))


def _twin_groups(base: Preorder) -> list[int]:
    """The element masks of the groups of two or more twins: classes with
    equal ``up`` and equal ``down`` masks on the quotient, so incomparable."""
    q = base.quotient
    groups: dict[tuple[int, int], list[int]] = {}
    for c, members in enumerate(q.classes):
        groups.setdefault((q.up[c], q.down[c]), []).append(members)
    return [sum(group) for group in groups.values() if len(group) > 1]


@settings(max_examples=700, deadline=5000)
@given(st.sampled_from(sorted(SHAPES)), st.sampled_from(range(1, 8)),
       st.integers(0, 2**32 - 1), st.booleans())
def test_the_routes_agree_on_hard_bases(shape, n, seed, classes):
    """Brute force, duality, the index, theorem 5 and auto answer alike on
    the shared hard bases of ``tests/bases.py`` and their blow-ups, and no
    member of brute force's tie set puts two twins in different blocks."""
    base = _hard_base(shape, n, seed, classes)
    brute = bca_bruteforce(base)
    ties = [c.blocks for c in brute.bca_set]
    for group in _twin_groups(base):
        assert all(block & group in (0, group) for member in ties for block in member)
    duality = bca_duality(base)
    assert [c.blocks for c in duality.bca_set] == ties
    assert duality.distance == brute.distance
    assert index_general(base) == duality.index == brute.index
    canonical = canonical_completion(base).blocks
    verdict = condition_star(base).verdict
    if verdict == "strict":
        assert ties == [canonical]
    elif verdict == "weak":
        assert canonical in ties
    auto = bca_auto(base)
    assert [c.blocks for c in auto.bca_set] == ties and auto.complete_set


@settings(max_examples=150, deadline=5000)
@given(st.sampled_from(sorted(SHAPES)), st.sampled_from(range(2, 8)),
       st.integers(0, 2**32 - 1), st.booleans())
def test_merging_twins_keeps_the_ties_and_the_index(shape, n, seed, classes):
    """Making a twin group one indifference class leaves brute force's and
    duality's tie sets, as blocks, and the index as they were on the base."""
    base = _hard_base(shape, n, seed, classes)
    groups = _twin_groups(base)
    assume(groups)
    brute = bca_bruteforce(base)
    for group in groups:
        # a row meeting the group is a member's, or one above the whole group
        merged = Preorder(base.ground, tuple(row | group if row & group else row
                                             for row in base.rows))
        for route in (bca_bruteforce, bca_duality):
            report = route(merged)
            assert [c.blocks for c in report.bca_set] == [c.blocks for c in brute.bca_set]
            assert report.index == brute.index


def _poset(rows) -> Preorder:
    return Preorder(GroundSet(tuple(f"x{i}" for i in range(1, len(rows) + 1))),
                    tuple(rows))


def _hard_rows(max_n: int):
    return st.builds(lambda shape, n, seed: SHAPES[shape](seed, n),
                     st.sampled_from(sorted(SHAPES)), st.integers(1, max_n),
                     st.integers(0, 2**32 - 1))


def _relabel(mask: int, perm) -> int:
    return sum(1 << perm[i] for i in iter_bits(mask))


# no explain phase: it traces every line run, which turns a failing
# example's 8-element brute force from milliseconds into minutes
@settings(max_examples=100, deadline=5000,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target,
                  Phase.shrink))
@given(_hard_rows(7), st.permutations(range(7)), _hard_rows(5), _hard_rows(5))
def test_the_routes_keep_the_metamorphic_laws(rows, order, upper, lower):
    """Brute force, duality, auto and the index give the answers two laws
    derive from brute force's answers on smaller or relabelled bases.

    Relabelling the elements by a permutation relabels the tie set and keeps
    the distance and the index.  In the ordinal sum A + B, every element of A
    above every element of B, the ties are each tie of A followed by each tie
    of B, and the index and the distance are 2^|B| times A's plus B's.  Sums
    reach 9 classes, duality's guard; brute force checks those of at most 8."""
    a, b = len(upper), len(lower)
    assume(a + b <= 9)
    perm = [i for i in order if i < len(rows)]  # element i goes to perm[i]
    moved = [0] * len(rows)
    for i, row in enumerate(rows):
        moved[perm[i]] = _relabel(row, perm)
    below = (1 << b) - 1
    summed = [row | below << a for row in upper] + [row << a for row in lower]
    plain = bca_bruteforce(_poset(rows))
    top, bottom = bca_bruteforce(_poset(upper)), bca_bruteforce(_poset(lower))
    assert index_general(_poset(moved)) == plain.index
    assert index_general(_poset(summed)) == (top.index << b) + bottom.index
    for route in (bca_bruteforce, bca_duality, bca_auto):
        relabelled = route(_poset(moved))
        assert [c.blocks for c in relabelled.bca_set] == sorted(
            tuple(_relabel(block, perm) for block in c.blocks)
            for c in plain.bca_set)
        assert (relabelled.distance, relabelled.index) == \
            (plain.distance, plain.index)
        if route is bca_bruteforce and a + b > 8:
            continue
        whole = route(_poset(summed))
        assert [c.blocks for c in whole.bca_set] == sorted(
            t.blocks + tuple(block << a for block in s.blocks)
            for t in top.bca_set for s in bottom.bca_set)
        assert whole.index == (top.index << b) + bottom.index
        assert whole.distance == (top.distance << b) + bottom.distance
