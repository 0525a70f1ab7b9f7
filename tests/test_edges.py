"""Degenerate sizes, stream ordering, and thread-safety smoke checks."""

import concurrent.futures
import itertools

import pytest

import preorder_bca as pb
from preorder_bca import (
    BadParameter,
    GroundSet,
    TooLarge,
    bca_auto,
    bca_bruteforce,
    canonical_completion,
    condition_star,
    enumerate_completions,
    enumerate_preorders,
    enumerate_total_preorders,
    index_general,
    ksb_distance,
    top_difference_direct,
    top_difference_fast,
)
from worked_examples import spec
from conftest import random_preorder


def test_singleton_ground_set():
    one = spec("equality", n=1).build()
    assert top_difference_fast(one, one) == 0
    assert top_difference_direct(one, one) == 0
    assert ksb_distance(one, one) == 0
    report = bca_bruteforce(one)
    assert report.distance == 0
    assert report.bca_set[0].blocks == (1,)
    assert index_general(one) == 2
    assert condition_star(one).verdict == "strict"
    assert canonical_completion(one).blocks == (1,)


def test_two_element_universe_exact():
    ground = GroundSet(("a", "b"))
    universe = list(enumerate_preorders(ground))
    assert len(universe) == 4
    # distances live in a tiny grid; check the full matrix symmetry
    for p, q in itertools.product(universe, repeat=2):
        assert top_difference_fast(p, q) == top_difference_fast(q, p)
        assert top_difference_fast(p, q) == top_difference_direct(p, q)


def test_ordered_partition_stream_is_lexicographic():
    ground = GroundSet(("a", "b", "c"))
    seqs = [t.blocks for t in enumerate_total_preorders(ground)]
    assert len(seqs) == 13
    assert seqs == sorted(seqs)
    assert seqs[0] == (0b001, 0b010, 0b100)
    assert seqs[-1] == (0b111,)


def test_parallel_queries_share_immutable_relations():
    base = spec("containment", z=3).build()
    totals = list(enumerate_total_preorders(GroundSet(("p", "q", "r"))))

    def work(seed: int) -> tuple:
        d = top_difference_fast(base, canonical_completion(base))
        rep = bca_auto(spec("coordinatewise", m=2).build())
        return d, rep.distance, len(totals)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = set(pool.map(work, range(32)))
    assert len(results) == 1


def test_random_preorder_helper_densities(rng):
    # closure of anything is a preorder at every density, including extremes
    for density in (0.0, 1.0, 0.5):
        p = random_preorder(rng, 6, density)
        assert p.n == 6


_GUARDED = {
    "bca_bruteforce": lambda p, v: pb.bca_bruteforce(p, max_n=v),
    "covering_radius": lambda p, v: pb.covering_radius(p.ground, max_n=v),
    "top_difference_direct": lambda p, v: top_difference_direct(p, p, max_n=v),
    "verify_strict_optimality": lambda p, v: pb.verify_strict_optimality(p, max_n=v),
    "enumerate_preorders": lambda p, v: list(enumerate_preorders(p.ground, max_n=v)),
    "enumerate_total_preorders":
        lambda p, v: list(enumerate_total_preorders(p.ground, max_n=v)),
    "bca_duality": lambda p, v: pb.bca_duality(p, max_classes=v),
    "index_general": lambda p, v: index_general(p, max_classes=v),
    "enumerate_completions":
        lambda p, v: list(enumerate_completions(p, max_classes=v)),
    "condition_star": lambda p, v: condition_star(p, max_layer=v),
    "bca_theorem5": lambda p, v: pb.bca_theorem5(p, max_layer=v),
}


@pytest.mark.parametrize("name", sorted(_GUARDED))
def test_guard_override_must_be_an_integer(name):
    base = spec("equality", n=2).build()
    for value in ("9", True, 4.0, -1):
        with pytest.raises(BadParameter, match="^guard override must be a "
                                               "nonnegative integer, got "):
            _GUARDED[name](base, value)
    _GUARDED[name](base, 4)  # an int override is honoured


@pytest.mark.parametrize("name, message", [
    ("bca_bruteforce", "brute-force sweep"),
    ("covering_radius", "covering radius sweep"),
    ("top_difference_direct", "direct menu sweep"),
    ("verify_strict_optimality", "strict-optimality sweep"),
    ("enumerate_preorders", "enumerating preorders"),
    ("enumerate_total_preorders", "enumerating total preorders"),
    ("bca_duality", "enumerating completions"),
    ("index_general", "enumerating completions"),
    ("enumerate_completions", "enumerating completions"),
    ("condition_star", "layer 1 subset sweep"),
    ("bca_theorem5", "layer 1 subset sweep"),
])
def test_element_guard_messages(name, message):
    # the two-element antichain: two elements, two classes, one layer of two.
    # Condition (*) counts the classes it sweeps, those with something below,
    # so it reads the fence x1 < x2 > x3 < x4, whose top layer has two
    base, unit = spec("equality", n=2).build(), "elements"
    if message == "layer 1 subset sweep":
        base = spec("fence", k=4).build()
    if message in ("enumerating completions", "layer 1 subset sweep"):
        unit = "indifference classes"
    with pytest.raises(TooLarge, match=rf"^{message} on 2 {unit} exceeds the "
                                       r"guard \(1\)$"):
        _GUARDED[name](base, 1)


def test_no_public_name_is_a_generator_function():
    import inspect

    assert [name for name in pb.__all__
            if inspect.isgeneratorfunction(getattr(pb, name))] == []


def test_streams_refuse_at_the_call():
    # each stream checks its arguments and its guard before returning the
    # generator, so nothing here is iterated
    base = spec("equality", n=5).build()
    calls = [
        (TooLarge, lambda: enumerate_completions(base, max_classes=4)),
        (TooLarge, lambda: enumerate_total_preorders(base.ground, max_n=4)),
        (TooLarge, lambda: enumerate_preorders(base.ground)),
        (BadParameter, lambda: enumerate_completions(base, "maximum")),
        (BadParameter, lambda: enumerate_completions(3)),
        (BadParameter, lambda: enumerate_total_preorders(3)),
        (BadParameter, lambda: enumerate_preorders(base.ground, max_n=-1)),
    ]
    for error, call in calls:
        with pytest.raises(error):
            call()


def test_strict_optimality_refuses_nothing_after_its_scan(monkeypatch):
    # the strict completions run under the sweep's own limit, not the
    # default class guard
    from preorder_bca import completions

    monkeypatch.setattr(completions, "MAX_COMPLETION_CLASSES", 3)
    report = pb.verify_strict_optimality(spec("equality", n=4).build())
    assert report.minimum == 6
    assert (len(report.attaining), len(report.strict_completions)) == (24, 24)
    assert report.all_strict_attain


@pytest.mark.parametrize("name, expected", [
    ("enumerate_total_preorders", [("enumerating total preorders", 3, "elements")]),
    ("enumerate_preorders", [("enumerating preorders", 3, "elements")]),
    ("enumerate_completions",
     [("enumerating completions", 2, "indifference classes")]),
    ("index_general", [("enumerating completions", 2, "indifference classes")]),
    ("bca_duality", [("enumerating completions", 2, "indifference classes")]),
    ("verify_strict_optimality", [("strict-optimality sweep", 3, "elements"),
                                  ("enumerating completions", 2,
                                   "indifference classes")]),
])
def test_each_route_guards_each_size_once(monkeypatch, name, expected):
    from preorder_bca import completions, core, metrics, scoring, solver

    calls = []

    def spy(default, override, n, what, unit="elements"):
        calls.append((what, n, unit))
        return core.guard(default, override, n, what, unit)

    for module in (completions, metrics, scoring, solver):
        monkeypatch.setattr(module, "guard", spy)
    # x1 ~ x2 above x3: three elements, two classes
    base = pb.Preorder(GroundSet(("x1", "x2", "x3")), (0b111, 0b111, 0b100))
    _GUARDED[name](base, None)  # streams are listed there
    assert calls == expected
