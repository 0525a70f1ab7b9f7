"""``Preorder.quotient`` and every route that reads it, checked against the
element-level routes in ``quotient_oracle`` on all 389 preorders with n <= 4
and on seeded random bases with n = 5..7: the completion streams, layers,
Hasse edges, the index, condition (*) and duality's tie set."""

import random

import pytest

import quotient_oracle as oracle
from preorder_bca import (
    GroundSet,
    TooLarge,
    bca_auto,
    bca_duality,
    canonical_completion,
    condition_star,
    enumerate_completions,
    enumerate_preorders,
    index_general,
    layers,
)
from preorder_bca.core import iter_bits, mask_of
from worked_examples import closure_preorder, cover_labels, spec


def universe():
    for n in range(1, 5):
        yield from enumerate_preorders(GroundSet(tuple(f"x{i}" for i in range(n))))


def random_bases():
    """Seeded bases with n = 5..7: elements dealt into k classes, then a
    random order on the classes, closed."""
    rng = random.Random(2024)
    for n, count in ((5, 80), (6, 50), (7, 30)):
        labels = [f"x{i}" for i in range(n)]
        for _ in range(count):
            k = rng.randint(max(1, n - 3), n)
            cls = [rng.randrange(k) for _ in range(n)]
            density = rng.choice((0.2, 0.35, 0.5))
            order = {(a, b) for a in range(k) for b in range(a + 1, k)
                     if rng.random() < density}
            yield closure_preorder(labels, [
                (labels[x], labels[y]) for x in range(n) for y in range(n)
                if cls[x] == cls[y] or (cls[x], cls[y]) in order])


CASES = {"all preorders n<=4": universe, "random n=5..7": random_bases}


@pytest.mark.parametrize("source", CASES)
def test_quotient_fields_match_element_definitions(source):
    for p in CASES[source]():
        q = p.quotient
        # classes: the symmetric part's classes, by smallest member
        assert q.classes == tuple(
            mask_of(y for y in range(p.n) if p.holds(x, y) and p.holds(y, x))
            for x in range(p.n)
            if not any(p.holds(x, y) and p.holds(y, x) for y in range(x)))
        # with the expand check below, the classes partition the ground set
        assert sum(c.bit_count() for c in q.classes) == p.n
        reps = [(c & -c).bit_length() - 1 for c in q.classes]
        k = len(q.classes)
        for c in range(k):
            for d in range(k):
                above = p.holds(reps[d], reps[c]) and not p.holds(reps[c], reps[d])
                assert bool(q.up[c] >> d & 1) == above
                assert bool(q.down[d] >> c & 1) == above
        # layers: each holds the remaining classes with nothing above them
        remaining = (1 << k) - 1
        for layer in q.layers:
            assert layer == mask_of(c for c in iter_bits(remaining)
                                    if not q.up[c] & remaining)
            remaining &= ~layer
        assert remaining == 0
        assert q.expand((1 << k) - 1) == p.ground.full_mask


@pytest.mark.parametrize("source", CASES)
def test_completion_streams_match_oracle(source):
    for p in CASES[source]():
        for which in ("all", "maximal", "strict"):
            got = [c.blocks for c in enumerate_completions(p, which)]
            want = [c.blocks for c in oracle.completions(p, which)]
            assert got == want, (p, which)


@pytest.mark.parametrize("source", CASES)
def test_layers_and_hasse_edges_match_oracle(source):
    for p in CASES[source]():
        assert layers(p) == oracle.layers(p)
        assert cover_labels(p) == oracle.hasse_edges(p)


@pytest.mark.parametrize("source", CASES)
def test_index_and_condition_star_match_oracle(source):
    # the class sweep checks one S per Y, the least: an element S it skips
    # contains a checked S with the same Y, so its pair is implied.  The
    # verdicts agree, and the witnesses are the oracle's less each one whose
    # S contains another listed S with the same layer and Y
    for p in CASES[source]():
        assert index_general(p) == oracle.index_general(p)
        got, want = condition_star(p), oracle.condition_star(p)
        assert got.verdict == want.verdict, p
        assert got.witnesses == tuple(
            w for w in want.witnesses
            if not any(v != w and (v.layer, v.below) == (w.layer, w.below)
                       and not v.subset & ~w.subset for v in want.witnesses)), p


@pytest.mark.parametrize("source", CASES)
def test_bca_duality_matches_oracle(source):
    # tie set, distance and indices of the maximal-completion argmax equal
    # those of the argmax over every completion
    for p in CASES[source]():
        assert bca_duality(p) == oracle.bca_duality(p), p


def wide_inner_base():
    # layer 1 = {t, u}; S = {t} gives Y = the ten-element antichain below t
    labels = ["t", "u"] + [f"a{i}" for i in range(10)]
    return closure_preorder(labels, [("t", f"a{i}") for i in range(10)])


def test_inner_index_guard_names_layer_and_y():
    # the 12-class base is not what the guard counts: Y's classes are
    base = wide_inner_base()
    with pytest.raises(TooLarge):
        oracle.condition_star(base)
    with pytest.raises(TooLarge, match=r"^layer 1, Y: enumerating completions on 10 "
                                       r"indifference classes exceeds the guard \(9\)$"):
        condition_star(base)
    with pytest.raises(TooLarge, match=r"^layer 3, Y: enumerating completions on 11 "
                                       r"indifference classes exceeds the guard \(9\)$"):
        condition_star(spec("coordinatewise", m=8).build())


def star_base(leaves):
    # a root strictly above every leaf; the leaves are pairwise incomparable
    labels = ["r"] + [f"l{i}" for i in range(leaves)]
    return closure_preorder(labels, [("r", x) for x in labels[1:]])


def two_classes_base():
    # 17 elements in two unrelated indifference classes of 9 and 8
    labels = [f"a{i}" for i in range(9)] + [f"b{i}" for i in range(8)]
    return closure_preorder(labels, [(x, y) for x in labels for y in labels
                                     if x[0] == y[0]])


@pytest.mark.parametrize("base, expected", [
    *(pytest.param(spec(kind, n=n).build(), spec(kind, n=n).expected_bca(),
                   id=f"{kind} n={n}")
      for kind in ("equality", "indifferent") for n in (17, 64)),
    pytest.param(star_base(17), None, id="root over 17 leaves"),
    pytest.param(two_classes_base(), None, id="two classes of 17 elements"),
])
def test_wide_layers_without_classes_below_are_strict(base, expected):
    # no layer has two classes with something below, so nothing is swept
    # whatever the layer's width in elements, and auto answers by theorem 5
    report = condition_star(base)
    assert (report.verdict, report.witnesses) == ("strict", ())
    auto = bca_auto(base)
    assert (auto.method, auto.condition_star) == ("theorem5", report)
    assert auto.bca_set == (expected or canonical_completion(base),)
