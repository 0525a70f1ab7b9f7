"""Best-complete-approximation solvers.

Three routes to the same answer, each honest about its feasible range:

* :func:`bca_bruteforce` scans every total preorder on the ground set and
  keeps the argmin of the top-difference semimetric (the definitional
  problem, exponential in n).
* :func:`bca_duality` keeps the completions of the base of maximum index.
  The index is strictly increasing in relation containment, so every such
  completion is maximal, and only the maximal completions are priced.
* :func:`bca_theorem5` returns the canonical completion outright when the
  layer condition checked by :func:`condition_star` holds strictly, flags the
  possibly-incomplete answer when it holds weakly, and declines otherwise.

:func:`bca_auto` alone chooses a route: one condition (*) check, theorem 5
on a strict verdict, duality otherwise, and the verdict on its report.

Duality, the index and condition (*)'s inner index are one argmax,
:func:`scoring.class_index`, over the maximal completions of the base's class
quotient (``Preorder.quotient``); no route builds a restricted preorder.

Tie sets are returned in full, sorted deterministically; no canonical
representative is silently chosen.
"""

from __future__ import annotations

from . import _backend
from ._record import record
from .core import (
    GroundSet,
    Mask,
    Preorder,
    TotalPreorder,
    _check_arguments,
    _strict_up,
    guard,
    iter_bits,
    layers,
    mask_of,
)
from .completions import _preorder_rows
from .errors import TooLarge
from .metrics import top_difference_fast
from .scoring import class_index, index_total

MAX_BRUTEFORCE_N = 9
MAX_COVERING_N = 4

STRICT = "strict"
WEAK = "weak"
FAILS = "fails"


@record
class ApproximationReport:
    """Solver output: the tie set, its common distance and common index, the
    route that produced it, and the condition (*) report the route read
    (None only for a route that checks no condition (*))."""

    bca_set: tuple[TotalPreorder, ...]
    distance: int
    index: int
    method: str
    condition_star: ConditionStarReport | None = None

    @property
    def complete_set(self) -> bool:
        """False only for a theorem-5 answer under a weak verdict: the
        canonical completion belongs to the answer but may not exhaust it."""
        star = self.condition_star
        return not (self.method == "theorem5" and star is not None
                    and star.verdict == WEAK)


@record
class ConditionStarWitness:
    layer: int
    subset: Mask
    below: Mask
    index_value: int
    bound: int


@record
class ConditionStarReport:
    """Verdict of the layer condition with every equality or violation found.

    ``strict`` means every inequality held strictly; ``weak`` means no
    violation but at least one equality; ``fails`` means some restricted
    index reached beyond its bound.  Each witness's S is a union of whole
    classes, listed by layer and then S's element mask; a pair whose S
    contains a witness's S and has its Y is implied and not listed.
    """

    verdict: str
    witnesses: tuple[ConditionStarWitness, ...]


def _report(base: Preorder, ties, method: str, distance: int | None = None,
            star: ConditionStarReport | None = None) -> ApproximationReport:
    """A route's report on its tie set, given as element block tuples: the
    members sorted by blocks, the route's distance or else the closed form of
    the first member, and the index all members share."""
    bca_set = tuple(TotalPreorder(base.ground, blocks) for blocks in sorted(ties))
    first = bca_set[0]
    if distance is None:
        distance = top_difference_fast(base, first)
    return ApproximationReport(bca_set, distance, index_total(first), method, star)


def bca_bruteforce(base: Preorder, max_n: int | None = None) -> ApproximationReport:
    """Exact argmin of the semimetric over every total preorder.

    The scan prices each block from per-element weights of the closed-form
    distance, once for all the candidates that share that block and the
    blocks above it (the definitional sweep would add an exponential
    factor); the equivalence of the two is covered by its own test battery.
    """
    _check_arguments(base)
    guard(MAX_BRUTEFORCE_N, max_n, base.n, "brute-force sweep")
    distance, ties = _backend.sweep_min_distance(base.n, base.strict_up)
    return _report(base, ties, "bruteforce", distance)


def bca_duality(base: Preorder, max_classes: int | None = None) -> ApproximationReport:
    """Completions of maximum index; equal to the brute-force answer.

    Strict monotonicity of the index under containment means no non-maximal
    completion can attain the maximum: only the maximal completions are
    priced (:func:`scoring.class_index`), and only the ties are expanded.
    """
    _check_arguments(base)
    q = base.quotient
    _, ties = class_index(q, (1 << len(q.classes)) - 1, max_classes)
    return _report(base, [tuple(q.expand(b) for b in blocks) for blocks in ties],
                   "duality")


def condition_star(base: Preorder) -> ConditionStarReport:
    """Check the layer condition: for every layer M_i and nonempty proper
    subset S of M_i, the index of the restriction to Y stays below
    2^(|S|+|Y|), where Y collects the elements strictly below some member of
    S but below no member of M_i outside S (an empty Y holds trivially).

    A class is in Y exactly when S holds its cover, the classes of M_i above
    it, so the least S with a given Y is the union of its classes' covers and
    any other S with that Y only loosens the bound: S runs over the unions of
    covers short of M_i, one per Y, in class-mask order.  Y's index is at
    most |Y| 2^|Y|, so S binds only if |Y| >= 2^|S|.  S holds at most |S|
    classes, so |Y| is at most the sum of the |S| largest down-set sizes of
    M_i's classes; once short of 2^|S| that sum stays short for larger S."""
    _check_arguments(base)
    q = base.quotient
    witnesses: list[ConditionStarWitness] = []
    for i, layer in enumerate(q.layers, start=1):
        covers = [(b, up & layer) for b, up in enumerate(q.up) if up & layer]
        reach = sorted(q.expand(q.down[a]).bit_count() for a in iter_bits(layer))[::-1]
        most = 0  # the largest |S| that can bind
        while sum(reach[:most + 1]) >= 2 << most:
            most += 1
        unions = {0}
        for cover in {cover for _, cover in covers}:
            unions |= {u | cover for u in unions
                       if q.expand(u | cover).bit_count() <= most}
        for u in sorted(unions - {0, layer}):
            y = mask_of(b for b, cover in covers if not cover & ~u)
            subset, below = q.expand(u), q.expand(y)
            if below.bit_count() < 1 << subset.bit_count():
                continue
            try:
                value = class_index(q, y)[0]
            except TooLarge as exc:  # name the layer whose Y was refused
                raise TooLarge(f"layer {i}, Y: {exc}") from None
            bound = 1 << (subset | below).bit_count()
            if value >= bound:
                witnesses.append(ConditionStarWitness(i, subset, below, value, bound))
    witnesses.sort(key=lambda w: (w.layer, w.subset))
    verdict = (FAILS if any(w.index_value > w.bound for w in witnesses)
               else WEAK if witnesses else STRICT)
    return ConditionStarReport(verdict, tuple(witnesses))


def bca_theorem5(base: Preorder) -> ApproximationReport | None:
    """Canonical-completion fast path.

    Returns the unique answer when the layer condition holds strictly, a
    ``complete_set=False`` report when it holds weakly (the canonical
    completion belongs to the answer but other members may exist), and None
    when the condition fails.  The report carries the condition (*) report.
    """
    star = condition_star(base)
    if star.verdict == FAILS:
        return None
    return _report(base, [layers(base)], "theorem5", star=star)


def bca_auto(base: Preorder) -> ApproximationReport:
    """Cheapest certain route, chosen by one condition (*) check: theorem 5
    when the verdict is strict, else duality, whose class guard refuses no
    base brute force could take (classes <= elements).  The report carries
    the verdict.  The check refuses only a Y of more classes than duality's
    guard, so the base is past that guard too and auto refuses it."""
    star = condition_star(base)
    if star.verdict == STRICT:
        return _report(base, [layers(base)], "theorem5", star=star)
    report = bca_duality(base)
    return ApproximationReport(report.bca_set, report.distance, report.index,
                               report.method, star)


@record
class CoveringRadiusReport:
    radius: int
    witness: Preorder


def covering_radius(ground: GroundSet, max_n: int | None = None) -> CoveringRadiusReport:
    """Largest best-approximation distance over every preorder on ``ground``,
    with the first preorder attaining it."""
    _check_arguments(ground, GroundSet)
    guard(MAX_COVERING_N, max_n, ground.n, "covering radius sweep")
    best = -1
    for rows in _preorder_rows(ground.n):
        distance, _ = _backend.sweep_min_distance(ground.n, _strict_up(rows))
        if distance > best:
            best, witness = distance, rows
    return CoveringRadiusReport(best, Preorder(ground, witness))
