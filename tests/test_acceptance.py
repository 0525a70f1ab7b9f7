"""Acceptance gate: one test per criterion, exact expectations, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Every expected value is exact (integer combinatorics); the stated
wall-clock budgets are asserted too.
"""

import itertools
import pathlib
import random
import time
from fractions import Fraction

import worked_examples as wx
from preorder_bca import (
    GroundSet,
    bca_bruteforce,
    bca_duality,
    canonical_completion,
    cli,
    condition_star,
    covering_radius,
    document_from_relation,
    document_to_json,
    enumerate_preorders,
    enumerate_total_preorders,
    layer_composition,
    index_general,
    index_total,
    is_maximal_completion,
    parse_document,
    normalized_index,
    top_difference_direct,
    top_difference_fast,
    verify_strict_optimality,
)
from worked_examples import spec
from conftest import random_preorder
from quotient_oracle import ksb_minimisers

DATA = pathlib.Path(__file__).parent / "data"

# frozen by the n = 3 and n = 4 exhaustive sweeps (criterion 9)
COVERING_RADIUS_GOLDEN = {2: 0, 3: 1, 4: 4}


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, detail: str) -> None:
        elapsed = time.perf_counter() - self.start
        print(f"{self.name}: pass - {detail} ({elapsed:.2f}s / {self.seconds:.0f}s budget)")
        assert elapsed < self.seconds, f"{self.name} exceeded its budget"


def blocks_of(report):
    return [c.blocks for c in report.bca_set]


def test_criterion_1_example_regressions():
    budget = Budget("criterion 1 (example regressions)", 1.0)

    ex1 = wx.example1_base()
    assert top_difference_fast(ex1, wx.example1_swap_top()) == 16
    assert top_difference_fast(ex1, wx.example1_swap_bottom()) == 2

    ex2 = wx.example2_base()
    ex2_completions = wx.example2_completions()
    got = [top_difference_fast(ex2, c) for c in ex2_completions]
    assert got == [3, 5, 6, 7, 7, 7, 7]

    ex3 = wx.example3_base()
    c0, c1 = wx.example3_maximal()
    assert top_difference_fast(ex3, c0) == 1
    assert top_difference_fast(ex3, c1) == 2

    assert top_difference_fast(wx.example4_base(),
                               wx.example4_answer()) == 0

    ex5 = wx.example5_base()
    assert [top_difference_fast(ex5, c)
            for c in wx.example5_maximal()] == [4, 4]

    e7c0, e7c1 = wx.example7_completions(2)
    assert (index_total(e7c0), index_total(e7c1)) == (40, 40)
    assert [index_total(c) for c in wx.example8_named()] == \
        [2**7 + 192, 2**7 + 194, 2**7 + 152]

    assert blocks_of(bca_bruteforce(ex2)) == [ex2_completions[0].blocks]
    assert blocks_of(bca_bruteforce(ex3)) == [c0.blocks]
    assert set(blocks_of(bca_bruteforce(ex5))) == \
        {c.blocks for c in wx.example5_maximal()}
    for base in (wx.example6_fence(), wx.example6_crown()):
        assert blocks_of(bca_bruteforce(base)) == [wx.example6_answer().blocks]
    assert set(blocks_of(bca_duality(wx.example7_base(2)))) == \
        {e7c0.blocks, e7c1.blocks}
    for k in (3, 4):
        assert blocks_of(bca_duality(wx.example7_base(k))) == \
            [wx.example7_completions(k)[1].blocks]
    assert blocks_of(bca_duality(wx.example8_base())) == \
        [wx.example8_named()[1].blocks]

    budget.done("examples 1-8 distances, indices, and tie sets")


def test_criterion_2_metric_oracle_equivalence():
    budget = Budget("criterion 2 (metric oracle equivalence)", 30.0)

    ground = GroundSet(("a", "b", "c"))
    universe = list(enumerate_preorders(ground))
    assert len(universe) == 29
    pairs = 0
    for p, q in itertools.product(universe, repeat=2):
        assert top_difference_fast(p, q) == top_difference_direct(p, q)
        pairs += 1

    rng = random.Random(1729)
    for n in (4, 5, 6):
        for _ in range(1000):
            p = random_preorder(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7]))
            q = random_preorder(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7]))
            assert top_difference_fast(p, q) == top_difference_direct(p, q)
            pairs += 1

    budget.done(f"closed form = menu sweep on {pairs} pairs")


def test_criterion_3_solver_oracle_equivalence():
    budget = Budget("criterion 3 (solver oracle equivalence)", 300.0)

    ground = GroundSet(("a", "b", "c", "d"))
    count = 0
    for base in enumerate_preorders(ground):
        brute = bca_bruteforce(base)
        dual = bca_duality(base)
        assert blocks_of(brute) == blocks_of(dual)
        assert brute.distance == dual.distance
        count += 1
    assert count == 355

    rng = random.Random(42)
    for _ in range(200):
        base = random_preorder(rng, 5, rng.choice([0.2, 0.35, 0.5]))
        brute = bca_bruteforce(base)
        dual = bca_duality(base)
        assert blocks_of(brute) == blocks_of(dual)
        assert brute.distance == dual.distance

    budget.done("duality = brute force on 355 exhaustive + 200 random bases")


def test_criterion_4_bca_members_are_maximal_completions():
    budget = Budget("criterion 4 (argmin members are maximal completions)", 120.0)

    checked = 0
    for n in (1, 2, 3, 4):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        for base in enumerate_preorders(ground):
            for cand in bca_bruteforce(base).bca_set:
                assert is_maximal_completion(cand, base)
                checked += 1

    budget.done(f"{checked} tie-set members over every base with n <= 4")


def test_criterion_5_family_closed_forms():
    # every sweep but the 3x3 grid must finish inside a minute; the grid's
    # 7,087,261-candidate sweep gets its own ten-minute allowance
    budget = Budget("criterion 5 (closed-form families)", 660.0)
    small_start = time.perf_counter()

    for z in (2, 3):
        report = bca_bruteforce(spec("containment", z=z).build())
        assert report.bca_set == (spec("containment", z=z).expected_bca(),)

    report = bca_bruteforce(spec("refinement", z=3).build())
    assert report.bca_set == (spec("refinement", z=3).expected_bca(),)

    report = bca_bruteforce(spec("word_prefix", alphabet=2, k=2).build())
    assert report.bca_set == (spec("word_prefix", alphabet=2, k=2).expected_bca(),)

    report = bca_bruteforce(spec("coordinatewise", m=2).build())
    assert report.bca_set == (spec("coordinatewise", m=2).expected_bca(),)
    assert time.perf_counter() - small_start < 60.0

    grid_start = time.perf_counter()
    report = bca_bruteforce(spec("coordinatewise", m=3).build())
    assert report.bca_set == (spec("coordinatewise", m=3).expected_bca(),)
    assert time.perf_counter() - grid_start < 600.0

    budget.done("containment z<=3, refinement z=3, words (2,2), grid m<=3 "
                "(Fubini(8) and Fubini(9) sweeps included)")


def test_criterion_6_condition_star_verdicts():
    budget = Budget("criterion 6 (condition star verdicts)", 60.0)

    for n in (2, 3, 5):
        assert condition_star(spec("chain", n=n).build()).verdict == "strict"

    ex5 = condition_star(wx.example5_base())
    assert ex5.verdict == "weak"
    witness = ex5.witnesses[0]
    assert witness.index_value == 2 * 2**2
    assert witness.bound == 2**3

    assert condition_star(wx.example7_base(2)).verdict == "weak"
    for k in (3, 4, 5):
        assert condition_star(wx.example7_base(k)).verdict == "fails"

    for z in (1, 2, 3):
        assert condition_star(spec("containment", z=z).build()).verdict == "strict"
    assert condition_star(spec("word_prefix", alphabet=2, k=2).build()).verdict == "strict"

    # reversed word order: every binding witness is an exact equality (the
    # same arithmetic as Example 5), so the condition is not satisfied, and
    # the canonical completion is still the unique brute-force answer
    word = spec("word_prefix", alphabet=2, k=2).build()
    rev = wx.converse(word)
    rev_report = condition_star(rev)
    assert rev_report.verdict == "weak"
    assert rev_report.witnesses
    assert all(w.index_value == w.bound for w in rev_report.witnesses)
    assert bca_bruteforce(rev).bca_set == (canonical_completion(rev),)

    budget.done("linear/example-5/example-7/containment/word fixtures, "
                "reversed word order not strict yet canonical wins")


def test_criterion_7_index_bounds_and_identities():
    budget = Budget("criterion 7 (index bounds and identities)", 60.0)

    for n in (1, 2, 3, 4):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        lower, upper = 2 * (2**n - 1), n * 2**n
        for p in enumerate_preorders(ground):
            assert lower <= index_general(p) <= upper

    for n in (1, 2, 3, 4, 5):
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

    for total in range(1, 7):
        for sizes in compositions(total):
            whole = layer_composition(sizes)
            for cut in range(1, len(sizes)):
                assert whole == layer_composition(sizes[:cut]) + \
                    layer_composition(sizes[cut:]) * Fraction(2) ** -sum(sizes[:cut])

    budget.done("bounds on every preorder n<=4, normalized_index/f identities on every "
                "total preorder n<=5, split identity for sums <= 6")


def test_criterion_8_strict_completion_optimality():
    budget = Budget("criterion 8 (strict completions minimize pair distance)", 120.0)

    for n in (1, 2, 3, 4):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        for base in enumerate_preorders(ground):
            report = verify_strict_optimality(base)
            minimum, minimisers = ksb_minimisers(base)
            assert report.minimum == minimum
            assert set(report.strict_completions) == minimisers

    report = verify_strict_optimality(spec("containment", z=2).build())
    assert report.minimum == 1
    assert sorted(t.render() for t in report.strict_completions) == [
        "[{a,b}] > [{a}] > [{b}] > [{}]",
        "[{a,b}] > [{b}] > [{a}] > [{}]",
    ]

    budget.done("the strict completions are exactly the pair-metric minimizers "
                "and the minimum counts incomparable pairs, n <= 4; two-element "
                "containment minimizers reproduced")


def test_criterion_9_covering_radius():
    budget = Budget("criterion 9 (covering radius)", 300.0)

    for n, want in COVERING_RADIUS_GOLDEN.items():
        ground = GroundSet(tuple(f"x{i}" for i in range(1, n + 1)))
        report = covering_radius(ground)
        assert report.radius == want
        assert bca_bruteforce(report.witness).distance == want

    budget.done("radius 0/1/4 for n = 2/3/4, witnesses attain it")


def test_criterion_10_cli_contract(tmp_path, capsys):
    budget = Budget("criterion 10 (cli contract)", 30.0)

    rng = random.Random(99)
    for trial in range(500):
        p = random_preorder(rng, rng.randint(1, 7), rng.choice([0.2, 0.4, 0.6]))
        doc = document_from_relation(p)
        assert parse_document(document_to_json(doc)) == doc

    from regen_goldens import GOLDEN_COMMANDS, GOLDEN

    for name, argv in GOLDEN_COMMANDS.items():
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        assert code == 0, name
        assert out == (GOLDEN / name).read_text(), name

    fixture_dir = DATA / "fixtures"
    assert cli.main(["check", str(fixture_dir / "chain3.json")]) == 0
    assert cli.main(["check", str(fixture_dir / "broken_transitivity.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli.main(["check", str(bad)]) == 3
    assert cli.main(["--max-n", "4", "bca", str(fixture_dir / "ex6_fence.json"),
                     "--method", "bruteforce"]) == 4
    capsys.readouterr()

    budget.done("500 document round trips, byte-stable goldens, "
                "exit codes 0/2/3/4")
