import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import worked_examples as wx
from preorder_bca import (
    BadParameter,
    EmptySequence,
    GroundSet,
    enumerate_completions,
    enumerate_preorders,
    enumerate_total_preorders,
    layer_composition,
    index_general,
    index_total,
    normalized_index,
    score,
    to_total,
)
from worked_examples import spec


def test_score_examples():
    chain = spec("chain", n=5).build()  # x1 on top, x5 at the bottom
    for i in range(5):
        assert score(chain, i) == 2 ** (5 - i)

    indiff = spec("indifferent", n=6).build()
    for x in range(6):
        assert score(indiff, x) == 2 ** 6

    c0 = wx.example8_named()[0]
    bottom = c0.ground.labels.index("y")
    assert score(c0, bottom) == 2 ** 4


def test_index_example8():
    named = wx.example8_named()
    assert [index_total(t) for t in named] == [2**7 + 192, 2**7 + 194, 2**7 + 152]


def test_index_example7():
    c0, c1 = wx.example7_completions(2)
    assert index_total(c0) == 40
    assert index_total(c1) == 40
    c0, c1 = wx.example7_completions(3)
    assert index_total(c0) == 2 * 2**5 + 3 * 2**3
    assert index_total(c1) == 2**5 + 4 * 2**4 == 96


def test_index_extremes():
    for n in (1, 3, 5):
        linear = to_total(spec("chain", n=n).build())
        assert index_total(linear) == 2 * (2**n - 1)
        indiff = to_total(spec("indifferent", n=n).build())
        assert index_total(indiff) == n * 2**n


def test_index_general_examples():
    for n in (2, 3, 4):
        assert index_general(spec("equality", n=n).build()) == n * 2**n

    total = spec("coordinatewise", m=2).expected_bca()
    assert index_general(total) == index_total(total)

    ex7 = wx.example7_base(3)
    assert index_general(ex7) == 96


def test_index_general_matches_maximal_route():
    for base in (wx.example2_base(), wx.example3_base(),
                 wx.example5_base(), wx.example7_base(2)):
        over_maximal = max(index_total(c)
                           for c in enumerate_completions(base, "maximal"))
        assert index_general(base) == over_maximal


def test_index_bounds_exhaustive_small():
    for n in (1, 2, 3):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        for p in enumerate_preorders(ground):
            value = index_general(p)
            assert 2 * (2**n - 1) <= value <= n * 2**n


def test_index_monotone_on_totals():
    ground = GroundSet(("a", "b", "c", "d"))
    totals = list(enumerate_total_preorders(ground))
    for p, q in itertools.product(totals, repeat=2):
        if all(a & ~b == 0 for a, b in zip(p.rows, q.rows)):
            assert index_total(p) <= index_total(q)


def test_normalized_values_are_dyadic():
    # every normalized value is exact, with a power-of-two denominator
    for sizes in ((1,), (2, 1), (1, 1, 1), (3, 2, 4)):
        value = layer_composition(sizes)
        assert isinstance(value, Fraction)
        assert value.denominator & (value.denominator - 1) == 0
    assert layer_composition([2, 1]) == Fraction(9, 4)


def test_normalized_index_examples():
    for n in (2, 4):
        indiff = to_total(spec("indifferent", n=n).build())
        assert normalized_index(indiff) == n

    linear3 = to_total(spec("chain", n=3).build())
    assert normalized_index(linear3) == Fraction(14, 2**3)  # 14/8 = 7/4

    c1 = wx.example8_named()[1]
    assert normalized_index(c1) == Fraction(2**7 + 194, 2**7)


def test_f_examples():
    assert layer_composition([5]) == 5
    assert layer_composition([1, 1, 1]) == Fraction(7, 2**2)
    with pytest.raises(EmptySequence):
        layer_composition([])
    for sizes in ([-1, 1], [1.5], [2, 0], [True]):
        with pytest.raises(BadParameter, match="positive integers"):
            layer_composition(sizes)
    for sizes in (5, "12", None, iter([1, 2])):
        with pytest.raises(BadParameter, match="list or tuple"):
            layer_composition(sizes)


def test_normalization_matches_layer_composition_small():
    for n in (1, 2, 3, 4):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        for t in enumerate_total_preorders(ground):
            value = normalized_index(t)
            assert value == layer_composition(t.block_sizes())
            assert value * Fraction(2) ** n == index_total(t)


def compositions(total):
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in compositions(total - head):
            yield (head,) + rest


def test_layer_composition_split_exhaustive():
    for total in range(1, 7):
        for sizes in compositions(total):
            whole = layer_composition(sizes)
            for cut in range(1, len(sizes)):
                left = layer_composition(sizes[:cut])
                right = layer_composition(sizes[cut:])
                shift = sum(sizes[:cut])
                assert whole == left + right * Fraction(2) ** -shift


@given(st.lists(st.integers(1, 8), min_size=2, max_size=6), st.data())
def test_layer_composition_split_property(sizes, data):
    cut = data.draw(st.integers(1, len(sizes) - 1))
    whole = layer_composition(sizes)
    left = layer_composition(sizes[:cut])
    right = layer_composition(sizes[cut:])
    assert whole == left + right * Fraction(2) ** -sum(sizes[:cut])


def test_index_general_equals_max_over_all_completions():
    for base in (wx.example2_base(), wx.example5_base()):
        stream_max = max(index_total(c) for c in enumerate_completions(base))
        assert index_general(base) == stream_max


def test_example7_closed_form_indices():
    # closed forms: 2*2^(k+2) + k*2^k for the merge-up completion,
    # 2^(k+2) + (k+1)*2^(k+1) for the merge-down one; tie exactly at k = 2
    import worked_examples as wx

    for k in (2, 3, 4, 5):
        c0, c1 = wx.example7_completions(k)
        assert index_total(c0) == 2 * 2**(k + 2) + k * 2**k
        assert index_total(c1) == 2**(k + 2) + (k + 1) * 2**(k + 1)
        assert (index_total(c0) == index_total(c1)) == (k == 2)
        assert (index_total(c1) > index_total(c0)) == (k > 2)
