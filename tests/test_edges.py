"""Degenerate sizes, stream ordering, and thread-safety smoke checks."""

import concurrent.futures
import itertools

from preorder_bca import (
    GroundSet,
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
from preorder_bca import families
from conftest import random_preorder


def test_singleton_ground_set():
    one = families.equality(1)
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
    base = families.fence(6)
    stream = enumerate_completions(base)
    first = [c.blocks for c in stream]
    second = [c.blocks for c in stream]
    assert first == second and first


def test_parallel_queries_share_immutable_relations():
    base = families.containment_order(3)
    totals = list(enumerate_total_preorders(GroundSet(("p", "q", "r"))))

    def work(seed: int) -> tuple:
        d = top_difference_fast(base, canonical_completion(base).as_preorder)
        rep = bca_auto(families.coordinatewise_order(2))
        return d, rep.distance, len(totals)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = set(pool.map(work, range(32)))
    assert len(results) == 1


def test_random_preorder_helper_densities(rng):
    # closure of anything is a preorder at every density, including extremes
    for density in (0.0, 1.0, 0.5):
        p = random_preorder(rng, 6, density)
        assert p.n == 6
