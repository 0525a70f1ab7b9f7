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


def test_completion_stream_reiterable():
    base = spec("fence", k=6).build()
    stream = enumerate_completions(base)
    first = [c.blocks for c in stream]
    second = [c.blocks for c in stream]
    assert first == second and first


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
    # the two-element antichain: two elements, two classes, one layer of two
    unit = "indifference classes" if message == "enumerating completions" else "elements"
    with pytest.raises(TooLarge, match=rf"^{message} on 2 {unit} exceeds the "
                                       r"guard \(1\)$"):
        _GUARDED[name](spec("equality", n=2).build(), 1)
