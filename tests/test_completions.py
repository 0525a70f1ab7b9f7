import random

import pytest

import quotient_oracle as oracle
import worked_examples as wx
from preorder_bca import (
    BadParameter,
    GroundSet,
    Preorder,
    TooLarge,
    canonical_completion,
    enumerate_completions,
    enumerate_preorders,
    enumerate_total_preorders,
    is_completion,
    is_maximal_completion,
    is_total,
    to_total,
    validate_preorder,
)
from preorder_bca.completions import class_blocks
from preorder_bca.core import Relation, iter_bits
from conftest import random_preorder
from worked_examples import spec


# -- oracles by definition ----------------------------------------------------

def maximal_by_containment(completions):
    """The completions that no other completion properly contains, by
    pairwise row containment (containment implies a larger pair count)."""
    rows_list = [c.rows for c in completions]
    counts = [sum(r.bit_count() for r in rows) for rows in rows_list]
    kept = []
    for i, cand in enumerate(completions):
        if not any(counts[j] > counts[i]
                   and all(a & ~b == 0 for a, b in zip(rows_list[i], rows_list[j]))
                   for j in range(len(completions))):
            kept.append(cand)
    return kept


def is_strict_by_definition(cand, base):
    """Every base-incomparable pair is strictly ranked by ``cand``."""
    for i in range(base.n):
        for j in range(base.n):
            if not base.holds(i, j) and not base.holds(j, i):
                if cand.holds(i, j) and cand.holds(j, i):
                    return False
    return True


def preorders_by_pattern_filter(ground):
    """Every reflexive off-diagonal bit pattern in increasing order, kept
    when transitive."""
    n = ground.n
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for pattern in range(1 << len(offdiag)):
        rows = [1 << i for i in range(n)]
        for bit, (i, j) in enumerate(offdiag):
            if (pattern >> bit) & 1:
                rows[i] |= 1 << j
        if all(all(rows[j] & ~rows[i] == 0 for j in iter_bits(rows[i]))
               for i in range(n)):
            yield tuple(rows)


def pattern_key(rows):
    n = len(rows)
    key = 0
    for i in reversed(range(n)):
        for j in reversed(range(n)):
            if i != j:
                key = (key << 1) | ((rows[i] >> j) & 1)
    return key


def oracle_bases():
    """Every preorder with n <= 4, then seeded random bases with n = 5, 6."""
    for n in (1, 2, 3, 4):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        yield from enumerate_preorders(ground)
    rng = random.Random(4)
    for n in (5, 6):
        for density in (0.1, 0.2, 0.3, 0.5):
            for _ in range(5):
                yield random_preorder(rng, n, density)


def test_total_preorder_counts_match_fubini():
    for n in range(1, 6):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        count = sum(1 for _ in enumerate_total_preorders(ground))
        assert count == wx.fubini(n)


def test_total_preorder_stream_is_deterministic_and_total():
    ground = GroundSet(("a", "b", "c", "d"))
    first = [t.blocks for t in enumerate_total_preorders(ground)]
    second = [t.blocks for t in enumerate_total_preorders(ground)]
    assert first == second
    for t in enumerate_total_preorders(ground):
        assert is_total(t)


def test_total_preorder_guard():
    ground = GroundSet(tuple(f"e{i}" for i in range(10)))
    with pytest.raises(TooLarge):
        list(enumerate_total_preorders(ground))
    # explicit override admits the larger sweep
    stream = enumerate_total_preorders(ground, max_n=10)
    next(iter(stream))


def test_preorder_counts():
    for n, want in ((1, 1), (2, 4), (3, 29), (4, 355)):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        seen = set()
        for p in enumerate_preorders(ground):
            validate_preorder(Relation(p.ground, p.rows))
            seen.add(p.rows)
        assert len(seen) == want


def test_example2_has_seven_completions():
    ex2 = wx.example2_base()
    got = {c.blocks for c in enumerate_completions(ex2)}
    want = {c.blocks for c in wx.example2_completions()}
    assert got == want
    assert len(got) == 7


def test_completions_of_equality_are_all_totals():
    for n in (2, 3, 4):
        eq = spec("equality", n=n).build()
        count = sum(1 for _ in enumerate_completions(eq))
        assert count == wx.fubini(n)


def test_every_completion_completes(rng):
    for _ in range(25):
        base = random_preorder(rng, 5)
        for cand in enumerate_completions(base):
            assert is_completion(cand, base)


def test_example3_maximal_completions():
    ex3 = wx.example3_base()
    got = {c.blocks for c in enumerate_completions(ex3, "maximal")}
    want = {c.blocks for c in wx.example3_maximal()}
    assert got == want


def test_maximal_filter_members_pass_the_exhaustive_check(rng):
    for _ in range(15):
        base = random_preorder(rng, 4)
        completions = list(enumerate_completions(base))
        maximal = {c.blocks for c in maximal_by_containment(completions)}
        for cand in completions:
            assert is_maximal_completion(cand, base) == (cand.blocks in maximal)


def test_filtered_streams_match_the_definitions():
    # the local block rules yield exactly the definitional filters of the
    # "all" stream, in its order
    for base in oracle_bases():
        completions = list(enumerate_completions(base))
        maximal = maximal_by_containment(completions)
        assert ([c.blocks for c in enumerate_completions(base, "maximal")]
                == [c.blocks for c in maximal])
        assert ([c.blocks for c in enumerate_completions(base, "strict")]
                == [c.blocks for c in completions if is_strict_by_definition(c, base)])
        maximal_blocks = {c.blocks for c in maximal}
        for cand in completions:
            assert is_maximal_completion(cand, base) == (cand.blocks in maximal_blocks)


def test_maximal_stream_on_restrictions_matches_the_definition():
    # condition (*) asks class_blocks for the maximal completions of class
    # submasks: each must be the definitional filter of the restriction's
    # "all" stream, in its order.  ``restrict`` renumbers the elements, so
    # blocks are compared by their labels
    for n in (1, 2, 3, 4):
        for base in enumerate_preorders(GroundSet(tuple(f"e{i}" for i in range(n)))):
            q = base.quotient
            for sub in range(1, 1 << len(q.classes)):
                part = oracle.restrict(base, q.expand(sub))
                expected = [tuple(part.ground.label_set(b) for b in c.blocks)
                            for c in maximal_by_containment(
                                list(enumerate_completions(part)))]
                assert [tuple(base.ground.label_set(q.expand(b)) for b in blocks)
                        for blocks in class_blocks(q.up, sub, "maximal")] == expected


def test_fence8_has_49_maximal_completions():
    fence8 = spec("fence", k=8).build()
    maximal = list(enumerate_completions(fence8, "maximal"))
    assert len(maximal) == 49
    assert len({c.blocks for c in maximal}) == 49
    for cand in maximal:
        assert is_maximal_completion(cand, fence8)


def test_example6_and_8_maximal_sets():
    # counts fixed by exhaustive enumeration, cross-checked in the suite by
    # filtering the full total-preorder universe; the two-block relation and
    # the three named completions of example 8 are all maximal
    fence_max = {c.blocks for c in enumerate_completions(wx.example6_fence(), "maximal")}
    crown_max = {c.blocks for c in enumerate_completions(wx.example6_crown(), "maximal")}
    answer = wx.example6_answer().blocks
    assert answer in fence_max and answer in crown_max
    assert len(fence_max) == 8
    assert len(crown_max) == 4

    ex8 = wx.example8_base()
    maximal8 = {c.blocks for c in enumerate_completions(ex8, "maximal")}
    assert len(maximal8) == 9
    for named in wx.example8_named():
        assert named.blocks in maximal8
        assert is_maximal_completion(named, ex8)


def test_is_maximal_completion_rejects_non_completions():
    eq = spec("equality", n=2).build()
    not_completion = wx.total(("x1", "x2"), ("x1",), ("x2",))
    # a linear order is a completion of equality, so use a broken base instead
    chain = spec("chain", n=2).build()
    flipped = wx.total(("x1", "x2"), ("x2",), ("x1",))
    with pytest.raises(BadParameter,
                       match="^candidate does not complete the base relation$"):
        is_maximal_completion(flipped, chain)
    assert is_maximal_completion(to_total(spec("indifferent", n=2).build()), eq)
    assert not is_maximal_completion(not_completion, eq)


def test_unknown_completion_filter_raises_bad_parameter():
    assert issubclass(BadParameter, ValueError)
    with pytest.raises(BadParameter, match="unknown completion filter"):
        enumerate_completions(spec("chain", n=2).build(), "maximum")


def test_strict_completions():
    # strict completions of a partial order are linear orders
    for base in (wx.example2_base(), wx.example3_base(), spec("fence", k=4).build()):
        strict = list(enumerate_completions(base, "strict"))
        assert strict
        for cand in strict:
            assert all(b.bit_count() == 1 for b in cand.blocks)
            assert is_completion(cand, base)

    # with genuine indifference in the base, strict completions keep it
    rem = wx.three_member_tie_base()
    for cand in enumerate_completions(rem, "strict"):
        assert max(b.bit_count() for b in cand.blocks) == 6


def test_canonical_completion_examples():
    eq = spec("equality", n=3).build()
    assert canonical_completion(eq).blocks == (eq.ground.full_mask,)

    cont2 = spec("containment", z=2).build()
    assert canonical_completion(cont2) == spec("containment", z=2).expected_bca()

    total = spec("coordinatewise", m=3).expected_bca()
    assert canonical_completion(Preorder(total.ground, total.rows)) == total


def test_canonical_is_always_maximal(rng):
    for _ in range(20):
        base = random_preorder(rng, 5)
        canonical = canonical_completion(base)
        assert is_completion(canonical, base)
        assert is_maximal_completion(canonical, base)


def test_completion_stream_determinism(rng):
    base = random_preorder(rng, 6)
    runs = [[c.blocks for c in enumerate_completions(base)] for _ in range(2)]
    assert runs[0] == runs[1]


def test_preorder_stream_matches_the_pattern_filter():
    for n in (1, 2, 3, 4):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        assert ([p.rows for p in enumerate_preorders(ground)]
                == list(preorders_by_pattern_filter(ground)))
    # n = 5: A000798 many preorders (each validated by the Preorder
    # constructor) in strictly increasing pattern order is the filter's
    # sequence, without its 2^20 patterns
    ground = GroundSet(tuple(f"e{i}" for i in range(5)))
    keys = [pattern_key(p.rows) for p in enumerate_preorders(ground, max_n=5)]
    assert len(keys) == 6942
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumerate_preorders_guard():
    ground = GroundSet(tuple(f"e{i}" for i in range(5)))
    with pytest.raises(TooLarge):
        list(enumerate_preorders(ground))


def pairwise_is_completion(cand, base):
    # independent membership test, plain pair loops
    n = base.n
    for i in range(n):
        for j in range(n):
            if base.holds(i, j) and not cand.holds(i, j):
                return False
            if base.holds(i, j) and not base.holds(j, i):
                if not (cand.holds(i, j) and not cand.holds(j, i)):
                    return False
    return True


def test_completion_stream_exact_against_universe_n4():
    # for every base on four elements, the quotient enumeration produces
    # exactly the completions found by filtering all 75 total preorders
    ground = GroundSet(tuple("abcd"))
    universe = list(enumerate_total_preorders(ground))
    for base in enumerate_preorders(ground):
        streamed = {c.blocks for c in enumerate_completions(base)}
        filtered = {t.blocks for t in universe if pairwise_is_completion(t, base)}
        assert streamed == filtered
        filtered_lib = {t.blocks for t in universe if is_completion(t, base)}
        assert streamed == filtered_lib


def test_canonical_maximal_exhaustive_through_n5():
    # every canonical completion sits in the maximal set; exhaustive sweep
    for n in (1, 2, 3, 4, 5):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        for base in enumerate_preorders(ground, max_n=5):
            assert is_maximal_completion(canonical_completion(base), base)
