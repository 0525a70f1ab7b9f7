import random
from itertools import product

import pytest

import worked_examples as wx
from preorder_bca import (
    BadParameter,
    FamilySpec,
    GroundSet,
    ParameterMismatch,
    PreorderBcaError,
    Relation,
    TooLarge,
    ViolationError,
    bca_bruteforce,
    canonical_completion,
    condition_star,
    converse,
    hasse_edges,
    is_completion,
    is_total,
    layers,
    preorder_from_predicate,
    to_total,
    top_difference_direct,
    validate_preorder,
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


# -- oracles ------------------------------------------------------------------
# The families build their rows from the structure they enumerate (subset
# masks, partitions, grid points, words, cover pairs).  These oracles build
# the same orders independently: they render the labels here and read them
# back through a label-level predicate.

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _oracle_containment(z):
    labels = ["{" + ",".join(_LETTERS[i] for i in range(z) if (m >> i) & 1) + "}"
              for m in range(1 << z)]

    def members(label):
        return set(filter(None, label.strip("{}").split(",")))

    return preorder_from_predicate(labels, lambda a, b: members(b) <= members(a))


def _oracle_refinement(z):
    # restricted growth strings in lexicographic order; cell c of a string
    # holds the positions labelled c, so cells come by smallest member
    labels = []
    for rgs in product(range(z), repeat=z):
        if all(rgs[i] <= max(rgs[:i], default=-1) + 1 for i in range(z)):
            labels.append("|".join(
                "".join(_LETTERS[i] for i in range(z) if rgs[i] == c)
                for c in range(max(rgs) + 1)))

    def coarser(a, b):
        return all(any(set(t) <= set(s) for s in a.split("|"))
                   for t in b.split("|"))

    return preorder_from_predicate(labels, coarser)


def _oracle_word_prefix(alphabet, k):
    labels = ["".join(w) for length in range(1, k + 1)
              for w in product(_LETTERS[:alphabet], repeat=length)]
    return preorder_from_predicate(labels, lambda a, b: a.startswith(b))


def _oracle_coordinatewise(m):
    labels = [f"({i},{j})" for i in range(1, m + 1) for j in range(1, m + 1)]

    def ge(a, b):
        a1, a2 = (int(t) for t in a.strip("()").split(","))
        b1, b2 = (int(t) for t in b.strip("()").split(","))
        return a1 >= b1 and a2 >= b2

    return preorder_from_predicate(labels, ge)


def _oracle_covers(n, covers):
    # covers are 1-based (upper, lower) pairs; x_i >= x_j iff j is reached
    # from i by walking down covers
    below = {i: [lo for hi, lo in covers if hi == i] for i in range(1, n + 1)}

    def reach(i):
        seen, stack = {i}, [i]
        while stack:
            for j in below[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    down = {i: reach(i) for i in range(1, n + 1)}
    return preorder_from_predicate(
        [f"x{i}" for i in range(1, n + 1)],
        lambda a, b: int(b[1:]) in down[int(a[1:])])


def _oracle_fence(k):
    tops = range(2, k + 1, 2)
    return _oracle_covers(k, [(t, t + d) for t in tops for d in (-1, 1)
                              if t + d <= k])


def _oracle_crown(k):
    half = k // 2
    return _oracle_covers(k, [(2 * t, 2 * b - 1)
                              for b in range(1, half + 1)
                              for t in range(1, half + 1)
                              if t != b % half + 1])


ORACLES = {
    "containment": (_oracle_containment, [(z,) for z in range(1, 7)]),
    "refinement": (_oracle_refinement, [(z,) for z in range(1, 6)]),
    "word_prefix": (_oracle_word_prefix,
                    [(a, k) for a in range(1, 27) for k in range(1, 65)
                     if sum(a ** i for i in range(1, k + 1)) <= 64]),
    "coordinatewise": (_oracle_coordinatewise, [(m,) for m in range(1, 9)]),
    "fence": (_oracle_fence, [(k,) for k in range(4, 65, 2)]),
    "crown": (_oracle_crown, [(k,) for k in range(4, 65, 2)]),
    "chain": (lambda n: _oracle_covers(n, [(i, i + 1) for i in range(1, n)]),
              [(n,) for n in range(1, 65)]),
    "equality": (lambda n: _oracle_covers(n, []), [(n,) for n in range(1, 65)]),
    "indifferent": (lambda n: preorder_from_predicate(
        [f"x{i}" for i in range(1, n + 1)], lambda a, b: True),
        [(n,) for n in range(1, 65)]),
}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_family_rows_match_the_label_predicate_oracle(kind):
    oracle, grid = ORACLES[kind]
    names = FAMILIES[kind][0]
    for values in grid:
        spec = FamilySpec(kind, dict(zip(names, values)))
        built, expected = spec.build(), oracle(*values)
        assert built.ground.labels == expected.ground.labels, spec
        assert built.rows == expected.rows, spec
        # the closed forms are the canonical completions of these families
        assert spec.expected_bca() == canonical_completion(expected), spec


@pytest.mark.parametrize("kind, params", [
    ("refinement", {"z": 6}),
    ("coordinatewise", {"m": 9}), ("word_prefix", {"alphabet": 2, "k": 6}),
    ("word_prefix", {"alphabet": 1, "k": 65}),
    ("word_prefix", {"alphabet": 2, "k": 10 ** 9}),
    # word labels are the letters a..z: the code points after "z" begin with
    # "{" and "|", which the containment and refinement labels use
    ("word_prefix", {"alphabet": 27, "k": 1}),
    ("word_prefix", {"alphabet": 64, "k": 1}),
])
def test_family_caps_refuse_too_large_orders(kind, params):
    error = BadParameter if params.get("alphabet", 0) > 26 else TooLarge
    with pytest.raises(error):
        FamilySpec(kind, params).build()


@pytest.mark.parametrize("kind", ["fence", "crown", "chain", "equality",
                                  "indifferent"])
def test_family_ground_cap_is_checked_before_building(kind):
    # 10**9 elements would need gigabytes if the labels or covers were built
    param = FAMILIES[kind][0][0]
    for size in (66, 10 ** 9):
        with pytest.raises(BadParameter, match="must be in 1..64"):
            FamilySpec(kind, {param: size}).build()


def _oracle_witnesses(rows):
    # for each i, then each k with i >= k missing, the smallest j with
    # i >= j >= k
    n = len(rows)
    witnesses = []
    for i in range(n):
        for k in range(n):
            if (rows[i] >> k) & 1:
                continue
            js = [j for j in range(n) if (rows[i] >> j) & 1 and (rows[j] >> k) & 1]
            if js:
                witnesses.append(("transitivity", i, js[0], k))
    return witnesses


def test_validate_preorder_reports_every_witness_in_order():
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 7)
        rows = tuple((1 << i) | rng.getrandbits(n) for i in range(n))
        expected = _oracle_witnesses(rows)
        rel = Relation(GroundSet(tuple(f"x{i}" for i in range(n))), rows)
        if not expected:
            assert validate_preorder(rel).rows == rows
            continue
        with pytest.raises(ViolationError) as info:
            validate_preorder(rel)
        assert list(info.value.witnesses) == expected
        checked += 1
    assert checked > 100
    broken = Relation(GroundSet(("a", "b", "c")), (0b011, 0b110, 0b100))
    with pytest.raises(ViolationError) as info:
        validate_preorder(broken)
    assert info.value.witnesses == (("transitivity", 0, 1, 2),)
