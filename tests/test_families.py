import random
from itertools import product

import pytest

import worked_examples as wx
from preorder_bca import (
    BadParameter,
    FamilySpec,
    GroundSet,
    Preorder,
    PreorderBcaError,
    Relation,
    ViolationError,
    bca_bruteforce,
    canonical_completion,
    condition_star,
    is_completion,
    is_total,
    layers,
    to_total,
    top_difference_direct,
    validate_preorder,
)
from preorder_bca.families import FAMILIES
from preorder_bca.core import iter_bits
from worked_examples import spec


def test_containment_small():
    two_chain = spec("containment", z=1).build()
    assert is_total(two_chain)
    assert to_total(two_chain).block_sizes() == (1, 1)

    cont3 = spec("containment", z=3).build()
    assert tuple(m.bit_count() for m in layers(cont3)) == (1, 3, 3, 1)
    assert cont3.ground.labels[0] == "{}"
    assert "{a,c}" in cont3.ground.labels

    cont2 = spec("containment", z=2)
    assert canonical_completion(cont2.build()) == cont2.expected_bca()
    with pytest.raises(BadParameter):
        spec("containment", z=7).build()


def test_cardinality_ordering_blocks():
    card = spec("containment", z=2).expected_bca()
    assert card.block_sizes() == (1, 2, 1)
    assert card.render() == "[{a,b}] > [{a},{b}] > [{}]"


def test_refinement_small():
    ref2 = spec("refinement", z=2).build()
    assert to_total(ref2).render() == "[ab] > [a|b]"

    ref3 = spec("refinement", z=3).build()
    assert ref3.n == 5
    assert tuple(m.bit_count() for m in layers(ref3)) == (1, 3, 1)
    cells3 = spec("refinement", z=3).expected_bca()
    assert cells3.block_sizes() == (1, 3, 1)
    assert canonical_completion(ref3) == cells3


def test_refinement_bca_is_cell_count():
    report = bca_bruteforce(spec("refinement", z=3).build())
    assert report.bca_set == (spec("refinement", z=3).expected_bca(),)


def test_word_order_small():
    unary = spec("word_prefix", alphabet=1, k=3).build()
    assert is_total(unary)
    assert to_total(unary).render() == "[aaa] > [aa] > [a]"

    word22 = spec("word_prefix", alphabet=2, k=2).build()
    assert word22.n == 6
    assert tuple(m.bit_count() for m in layers(word22)) == (4, 2)
    length22 = spec("word_prefix", alphabet=2, k=2).expected_bca()
    assert canonical_completion(word22) == length22

    report = bca_bruteforce(word22)
    assert report.bca_set == (length22,)


def test_word_downward_totality():
    for alphabet, k in ((2, 2), (2, 3), (3, 2)):
        p = spec("word_prefix", alphabet=alphabet, k=k).build()
        for x in range(p.n):
            below = list(iter_bits(p.rows[x] & ~(1 << x)))
            for i, y in enumerate(below):
                for z in below[i + 1:]:
                    assert p.holds(y, z) or p.holds(z, y)


def test_coordinatewise_small():
    single = spec("coordinatewise", m=1).build()
    assert single.n == 1

    grid2 = spec("coordinatewise", m=2)
    report = bca_bruteforce(grid2.build())
    assert report.bca_set == (grid2.expected_bca(),)
    assert grid2.expected_bca().render() == "[(2,2)] > [(1,2),(2,1)] > [(1,1)]"


def test_fence_crown_bca_and_edges():
    fence6, crown6 = spec("fence", k=6).build(), spec("crown", k=6).build()
    assert len(list(fence6.quotient.covers())) == 5
    assert len(list(crown6.quotient.covers())) == 6
    assert fence6.rows == wx.example6_fence().rows
    assert crown6.rows == wx.example6_crown().rows

    for base in (fence6, crown6):
        report = bca_bruteforce(base)
        assert report.bca_set == (spec("fence", k=6).expected_bca(),)

    with pytest.raises(BadParameter):
        spec("fence", k=5).build()
    with pytest.raises(BadParameter):
        spec("crown", k=2).build()


def test_chain_equality_indifferent():
    chain = spec("chain", n=4).build()
    assert bca_bruteforce(chain).bca_set == (to_total(chain),)

    eq = spec("equality", n=3).build()
    report = bca_bruteforce(eq)
    assert report.distance == 0
    assert report.bca_set == (to_total(spec("indifferent", n=3).build()),)


def test_condition_star_per_family():
    assert condition_star(spec("containment", z=2).build()).verdict == "strict"
    assert condition_star(spec("containment", z=3).build()).verdict == "strict"
    assert condition_star(spec("word_prefix", alphabet=2, k=2).build()).verdict == "strict"
    for m in (2, 3):
        assert condition_star(spec("coordinatewise", m=m).build()).verdict == "strict"


def test_reversed_word_order_sufficiency_not_necessity():
    # canonical completion wins by brute force although the layer condition
    # does not hold strictly (the k = 1 alphabet-2 case is the only strict one)
    word = spec("word_prefix", alphabet=2, k=2).build()
    rev = wx.converse(word)
    assert condition_star(rev).verdict == "weak"
    report = bca_bruteforce(rev)
    assert report.bca_set == (canonical_completion(rev),)

    word = spec("word_prefix", alphabet=2, k=1).build()
    assert condition_star(wx.converse(word)).verdict == "strict"


def test_canonical_matches_closed_forms():
    for family in (spec("containment", z=3), spec("refinement", z=4),
                   spec("word_prefix", alphabet=2, k=3), spec("coordinatewise", m=4)):
        assert canonical_completion(family.build()) == family.expected_bca()


def test_family_spec():
    family = FamilySpec("containment", {"z": 2})
    assert family.build() == _oracle_containment(2)
    assert family.expected_bca() == wx.total(
        ("{}", "{a}", "{b}", "{a,b}"), ("{a,b}",), ("{a}", "{b}"), ("{}",))

    family = FamilySpec("crown", {"k": 6})
    assert family.expected_bca() == wx.example6_answer()

    with pytest.raises(BadParameter, match="known kinds: containment, "):
        FamilySpec("mystery", {"z": 2})
    for kind in (["fence"], None, 4):
        with pytest.raises(BadParameter, match="family kind must be a string"):
            FamilySpec(kind, {"k": 4})
    for params in ({1: 2, "k": 4}, {None: 4}):
        with pytest.raises(BadParameter, match="parameter names must be strings"):
            FamilySpec("fence", params)
    with pytest.raises(BadParameter):
        FamilySpec("containment", {"k": 2})
    for kind, params in (("fence", {"k": "4"}), ("fence", {"k": 4.0}),
                         ("chain", {"n": True}), ("word_prefix", {"alphabet": 2, "k": None})):
        with pytest.raises(BadParameter, match="must be an integer"):
            FamilySpec(kind, params)
    for params in (None, 4, [("n", 4)]):
        with pytest.raises(BadParameter, match="parameters must be a dict"):
            FamilySpec("chain", params)
    with pytest.raises(BadParameter):
        spec("coordinatewise", m=0).expected_bca()


def test_family_spec_refuses_out_of_range_parameters_at_construction():
    # like an intransitive Preorder, an out-of-range spec cannot exist
    for kind, params, bad in (("chain", {"n": 65}, "n must be in 1..64, got 65"),
                              ("fence", {"k": 0}, "k must be in 1..64, got 0"),
                              ("word_prefix", {"k": 2, "alphabet": 10 ** 9},
                               f"alphabet must be in 1..64, got {10 ** 9}")):
        with pytest.raises(BadParameter, match=rf"^{kind} parameter {bad}$"):
            FamilySpec(kind, params)


def test_refinement_layers_are_cell_counts():
    # layer i collects the partitions with i cells, so layer sizes are the
    # Stirling partition numbers
    assert tuple(m.bit_count() for m in layers(spec("refinement", z=4).build())) \
        == (1, 7, 6, 1)
    assert condition_star(spec("refinement", z=3).build()).verdict == "strict"


def test_prefix_orders_satisfy_condition_at_larger_sizes():
    for alphabet, k in ((2, 3), (3, 2)):
        p = spec("word_prefix", alphabet=alphabet, k=k).build()
        assert condition_star(p).verdict == "strict"
        assert canonical_completion(p) == \
            spec("word_prefix", alphabet=alphabet, k=k).expected_bca()


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
        assert top_difference_direct(base, expected) == \
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
# The families build their rows from a predicate on the points they draw
# (subset masks, partition cells, words, grid points, positions).  These
# oracles build the same orders independently: they render the labels here
# and read them back through a label-level predicate; fence and crown come
# from cover pairs and a transitive walk.

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _preorder_from_predicate(labels, weakly_above) -> Preorder:
    # rows from a label-level comparator, validated, so a non-transitive
    # comparator raises ViolationError
    labels = tuple(labels)
    rows = tuple(sum(1 << j for j, b in enumerate(labels) if weakly_above(a, b))
                 for a in labels)
    return validate_preorder(Relation(GroundSet(labels), rows))


def _oracle_containment(z):
    labels = ["{" + ",".join(_LETTERS[i] for i in range(z) if (m >> i) & 1) + "}"
              for m in range(1 << z)]

    def members(label):
        return set(filter(None, label.strip("{}").split(",")))

    return _preorder_from_predicate(labels, lambda a, b: members(b) <= members(a))


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

    return _preorder_from_predicate(labels, coarser)


def _oracle_word_prefix(alphabet, k):
    labels = ["".join(w) for length in range(1, k + 1)
              for w in product(_LETTERS[:alphabet], repeat=length)]
    return _preorder_from_predicate(labels, lambda a, b: a.startswith(b))


def _oracle_coordinatewise(m):
    labels = [f"({i},{j})" for i in range(1, m + 1) for j in range(1, m + 1)]

    def ge(a, b):
        a1, a2 = (int(t) for t in a.strip("()").split(","))
        b1, b2 = (int(t) for t in b.strip("()").split(","))
        return a1 >= b1 and a2 >= b2

    return _preorder_from_predicate(labels, ge)


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
    return _preorder_from_predicate(
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
    "indifferent": (lambda n: _preorder_from_predicate(
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


# Each kind just over the 64-element cap.
OVER_CAP = {"containment": {"z": 7}, "refinement": {"z": 6},
            "word_prefix": {"alphabet": 2, "k": 6}, "coordinatewise": {"m": 9},
            "fence": {"k": 66}, "crown": {"k": 66}, "chain": {"n": 65},
            "equality": {"n": 65}, "indifferent": {"n": 65}}


@pytest.mark.parametrize("kind, params", [
    ("refinement", {"z": 6}),
    ("coordinatewise", {"m": 9}), ("word_prefix", {"alphabet": 2, "k": 6}),
    ("word_prefix", {"alphabet": 1, "k": 65}),
    ("word_prefix", {"alphabet": 2, "k": 10 ** 9}),
    # word labels are the letters a..z: the code points after "z" begin with
    # "{" and "|", which the containment and refinement labels use
    ("word_prefix", {"alphabet": 27, "k": 1}),
    ("word_prefix", {"alphabet": 64, "k": 1}),
    *(pytest.param(kind, OVER_CAP[kind], id=kind) for kind in sorted(FAMILIES)),
])
def test_family_caps_refuse_too_large_orders(kind, params):
    # 10**9 points would need gigabytes if any were drawn before the check
    for given in (params, dict.fromkeys(params, 10 ** 9)):
        with pytest.raises(BadParameter):
            FamilySpec(kind, given).build()
        with pytest.raises(BadParameter):
            FamilySpec(kind, given).expected_bca()


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
        for build in (validate_preorder, lambda rel: Preorder(rel.ground, rel.rows)):
            with pytest.raises(ViolationError) as info:
                build(rel)
            assert list(info.value.witnesses) == expected
        checked += 1
    assert checked > 100
    broken = Relation(GroundSet(("a", "b", "c")), (0b011, 0b110, 0b100))
    with pytest.raises(ViolationError) as info:
        validate_preorder(broken)
    assert info.value.witnesses == (("transitivity", 0, 1, 2),)
