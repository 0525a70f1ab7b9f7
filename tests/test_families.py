from itertools import product

import pytest

import worked_examples as wx
from preorder_bca import (
    BadParameter,
    FamilySpec,
    ParameterMismatch,
    PreorderBcaError,
    TooLarge,
    bca_bruteforce,
    canonical_completion,
    condition_star,
    converse,
    hasse_edges,
    is_completion,
    is_total,
    layers,
    to_total,
    top_difference_direct,
)
from preorder_bca import families
from preorder_bca.families import FAMILIES
from preorder_bca.core import iter_bits


def test_containment_small():
    two_chain = families.containment_order(1)
    assert is_total(two_chain)
    assert to_total(two_chain).block_sizes() == (1, 1)

    cont3 = families.containment_order(3)
    assert tuple(m.bit_count() for m in layers(cont3)) == (1, 3, 3, 1)
    assert cont3.ground.labels[0] == "{}"
    assert "{a,c}" in cont3.ground.labels

    assert canonical_completion(families.containment_order(2)) == \
        families.cardinality_ordering(2)
    with pytest.raises(TooLarge):
        families.containment_order(7)


def test_cardinality_ordering_blocks():
    card = families.cardinality_ordering(2)
    assert card.block_sizes() == (1, 2, 1)
    assert card.render() == "[{a,b}] > [{a},{b}] > [{}]"


def test_refinement_small():
    ref2 = families.refinement_order(2)
    assert to_total(ref2).render() == "[ab] > [a|b]"

    ref3 = families.refinement_order(3)
    assert ref3.n == 5
    assert tuple(m.bit_count() for m in layers(ref3)) == (1, 3, 1)
    assert families.cell_count_ordering(3).block_sizes() == (1, 3, 1)
    assert canonical_completion(ref3) == families.cell_count_ordering(3)


def test_refinement_bca_is_cell_count():
    report = bca_bruteforce(families.refinement_order(3))
    assert report.bca_set == (families.cell_count_ordering(3),)


def test_word_order_small():
    unary = families.word_prefix_order(1, 3)
    assert is_total(unary)
    assert to_total(unary).render() == "[aaa] > [aa] > [a]"

    word22 = families.word_prefix_order(2, 2)
    assert word22.n == 6
    assert tuple(m.bit_count() for m in layers(word22)) == (4, 2)
    assert canonical_completion(word22) == families.word_length_ordering(2, 2)

    report = bca_bruteforce(word22)
    assert report.bca_set == (families.word_length_ordering(2, 2),)


def test_word_downward_totality():
    for alphabet, k in ((2, 2), (2, 3), (3, 2)):
        p = families.word_prefix_order(alphabet, k)
        for x in range(p.n):
            below = list(iter_bits(p.rows[x] & ~(1 << x)))
            for i, y in enumerate(below):
                for z in below[i + 1:]:
                    assert p.holds(y, z) or p.holds(z, y)


def test_coordinatewise_small():
    single = families.coordinatewise_order(1)
    assert single.n == 1

    grid2 = families.coordinatewise_order(2)
    report = bca_bruteforce(grid2)
    assert report.bca_set == (families.sum_ordering(2),)
    assert families.sum_ordering(2).render() == "[(2,2)] > [(1,2),(2,1)] > [(1,1)]"


def test_fence_crown_bca_and_edges():
    assert len(hasse_edges(families.fence(6))) == 5
    assert len(hasse_edges(families.crown(6))) == 6
    assert families.fence(6).rows == wx.example6_fence().rows
    assert families.crown(6).rows == wx.example6_crown().rows

    for build in (families.fence, families.crown):
        report = bca_bruteforce(build(6))
        assert report.bca_set == (families.two_block(6),)

    with pytest.raises(BadParameter):
        families.fence(5)
    with pytest.raises(BadParameter):
        families.crown(2)


def test_chain_equality_indifferent():
    chain = families.chain(4)
    assert bca_bruteforce(chain).bca_set == (to_total(chain),)

    eq = families.equality(3)
    report = bca_bruteforce(eq)
    assert report.distance == 0
    assert report.bca_set == (to_total(families.indifferent(3)),)


def test_condition_star_per_family():
    assert condition_star(families.containment_order(2)).verdict == "strict"
    assert condition_star(families.containment_order(3)).verdict == "strict"
    assert condition_star(families.word_prefix_order(2, 2)).verdict == "strict"
    for m in (2, 3):
        assert condition_star(families.coordinatewise_order(m)).verdict == "strict"


def test_reversed_word_order_sufficiency_not_necessity():
    # canonical completion wins by brute force although the layer condition
    # does not hold strictly (the k = 1 alphabet-2 case is the only strict one)
    rev = converse(families.word_prefix_order(2, 2))
    assert condition_star(rev).verdict == "weak"
    report = bca_bruteforce(rev)
    assert report.bca_set == (canonical_completion(rev),)

    assert condition_star(converse(families.word_prefix_order(2, 1))).verdict == "strict"


def test_canonical_matches_closed_forms():
    pairs = [
        (families.containment_order(3), families.cardinality_ordering(3)),
        (families.refinement_order(4), families.cell_count_ordering(4)),
        (families.word_prefix_order(2, 3), families.word_length_ordering(2, 3)),
        (families.coordinatewise_order(4), families.sum_ordering(4)),
    ]
    for base, expected in pairs:
        assert canonical_completion(base) == expected


def test_family_spec():
    spec = FamilySpec("containment", {"z": 2})
    assert spec.build() == families.containment_order(2)
    assert spec.expected_bca() == families.cardinality_ordering(2)

    spec = FamilySpec("crown", {"k": 6})
    assert spec.expected_bca() == families.two_block(6)

    with pytest.raises(BadParameter, match="known kinds: containment, "):
        FamilySpec("mystery", {"z": 2})
    with pytest.raises(BadParameter):
        FamilySpec("containment", {"k": 2})
    with pytest.raises(ParameterMismatch):
        families.sum_ordering(0)


def test_refinement_layers_are_cell_counts():
    # layer i collects the partitions with i cells, so layer sizes are the
    # Stirling partition numbers
    assert tuple(m.bit_count() for m in layers(families.refinement_order(4))) \
        == (1, 7, 6, 1)
    assert condition_star(families.refinement_order(3)).verdict == "strict"


def test_prefix_orders_satisfy_condition_at_larger_sizes():
    for alphabet, k in ((2, 3), (3, 2)):
        p = families.word_prefix_order(alphabet, k)
        assert condition_star(p).verdict == "strict"
        assert canonical_completion(p) == families.word_length_ordering(alphabet, k)


def _small_specs(kind, max_n=6):
    """Every spec of ``kind`` with parameters in 1..6 whose order builds and
    has at most ``max_n`` elements, smallest parameter sum first."""
    names = FAMILIES[kind][0]
    specs = []
    for values in sorted(product(range(1, 7), repeat=len(names)), key=sum):
        spec = FamilySpec(kind, dict(zip(names, values)))
        try:
            base = spec.build()
        except PreorderBcaError:
            continue
        if base.n <= max_n:
            specs.append((spec, base))
    return specs


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_expected_bca_is_in_the_bruteforce_tie_set(kind):
    specs = _small_specs(kind)
    assert specs, kind
    for spec, base in specs:
        expected = spec.expected_bca()
        assert expected.ground == base.ground
        assert is_completion(expected, base), spec
        report = bca_bruteforce(base)
        assert expected in report.bca_set, spec
        assert top_difference_direct(base, expected.as_preorder) == \
            report.distance, spec


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_family_spec_rejects_missing_and_extra_parameters(kind):
    names = FAMILIES[kind][0]
    spec, _ = _small_specs(kind)[0]
    with pytest.raises(BadParameter, match=f"{kind} takes parameters"):
        FamilySpec(kind, {})
    with pytest.raises(BadParameter, match=f"{kind} takes parameters"):
        FamilySpec(kind, {name: spec.params[name] for name in names[1:]})
    with pytest.raises(BadParameter, match=f"{kind} takes parameters"):
        FamilySpec(kind, {**spec.params, "extra": 1})
