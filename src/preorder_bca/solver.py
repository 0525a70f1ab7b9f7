"""Best-complete-approximation solvers.

Three routes to the same answer, each honest about its feasible range:

* :func:`bca_bruteforce` scans every total preorder on the ground set and
  keeps the argmin of the top-difference semimetric (the definitional
  problem, exponential in n).
* :func:`bca_duality` scans only completions of the base and keeps those of
  maximum index.  The index is strictly increasing in relation containment,
  so the argmax over all completions is automatically the set of maximal
  completions of largest index.
* :func:`bca_theorem5` returns the canonical completion outright when the
  layer condition checked by :func:`condition_star` holds strictly, flags the
  possibly-incomplete answer when it holds weakly, and declines otherwise.

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
    iter_bits,
    layers,
    restrict,
)
from .completions import (
    canonical_completion,
    enumerate_completions,
    enumerate_preorders,
)
from .errors import TooLarge
from .metrics import top_difference_fast
from .scoring import index_general, index_total

MAX_BRUTEFORCE_N = 9
MAX_CONDITION_LAYER = 16
MAX_COVERING_N = 4

STRICT = "strict"
WEAK = "weak"
FAILS = "fails"


@record
class ApproximationReport:
    """Solver output: the tie set, its common distance, per-candidate indices,
    and the route that produced it.  ``complete_set`` is False only when the
    canonical fast path ran under weak layer-condition satisfaction, where
    the canonical completion is known to belong to the answer but may not
    exhaust it."""

    bca_set: tuple[TotalPreorder, ...]
    distance: int
    indices: tuple[int, ...]
    method: str
    complete_set: bool = True


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
    index reached beyond its bound.
    """

    verdict: str
    witnesses: tuple[ConditionStarWitness, ...]


def _sorted_candidates(cands: list[TotalPreorder]) -> tuple[TotalPreorder, ...]:
    return tuple(sorted(cands, key=lambda c: c.sort_key()))


def bca_bruteforce(base: Preorder, max_n: int | None = None) -> ApproximationReport:
    """Exact argmin of the semimetric over every total preorder.

    The per-candidate distance uses the closed-form formula (the definitional
    sweep would add an exponential factor); the equivalence of the two is
    covered by its own test battery.
    """
    limit = MAX_BRUTEFORCE_N if max_n is None else max_n
    if base.n > limit:
        raise TooLarge(f"brute-force sweep on {base.n} elements exceeds the "
                       f"guard ({limit}); raise max_n to insist")
    distance, argmin_blocks = _backend.sweep_min_distance(base.n, base.strict_up)
    cands = [TotalPreorder(base.ground, blocks) for blocks in argmin_blocks]
    ordered = _sorted_candidates(cands)
    return ApproximationReport(
        bca_set=ordered,
        distance=distance,
        indices=tuple(index_total(c) for c in ordered),
        method="bruteforce",
    )


def bca_duality(base: Preorder, max_classes: int | None = None) -> ApproximationReport:
    """Completions of maximum index; equal to the brute-force answer.

    Strict monotonicity of the index under containment means no non-maximal
    completion can attain the maximum, so the full completion stream needs no
    maximality filtering.
    """
    best: int | None = None
    argmax: list[TotalPreorder] = []
    for cand in enumerate_completions(base, "all", max_classes=max_classes):
        value = index_total(cand)
        if best is None or value > best:
            best = value
            argmax = [cand]
        elif value == best:
            argmax.append(cand)
    assert best is not None
    ordered = _sorted_candidates(argmax)
    return ApproximationReport(
        bca_set=ordered,
        distance=top_difference_fast(base, ordered[0].as_preorder),
        indices=tuple(best for _ in ordered),
        method="duality",
    )


def condition_star(base: Preorder, max_layer: int | None = None) -> ConditionStarReport:
    """Check the layer condition: for every layer M_i and nonempty proper
    subset S of M_i, the index of the restriction to Y stays below
    2^(|S|+|Y|), where Y collects the elements strictly below some member of
    S but below no member of M_i outside S.  An empty Y satisfies its
    inequality trivially.
    """
    limit = MAX_CONDITION_LAYER if max_layer is None else max_layer
    layer_masks = layers(base)
    # refuse before sweeping any layer, so a refusal costs only the layers
    for i, layer in enumerate(layer_masks, start=1):
        size = layer.bit_count()
        if size >= 2 and size > limit:
            raise TooLarge(f"layer {i} has {size} elements; the 2^|layer| "
                           f"subset sweep guard is {limit}")
    verdict = STRICT
    witnesses: list[ConditionStarWitness] = []
    for i, layer in enumerate(layer_masks, start=1):
        if layer.bit_count() < 2:
            continue
        s = (0 - layer) & layer
        while s != layer:
            below = 0
            for x in iter_bits(s):
                below |= base.strict_down[x]
            for x in iter_bits(layer & ~s):
                below &= ~base.strict_down[x]
            if below:
                value = index_general(restrict(base, below))
                bound = 1 << (s.bit_count() + below.bit_count())
                if value > bound:
                    verdict = FAILS
                    witnesses.append(ConditionStarWitness(i, s, below, value, bound))
                elif value == bound:
                    if verdict == STRICT:
                        verdict = WEAK
                    witnesses.append(ConditionStarWitness(i, s, below, value, bound))
            s = (s - layer) & layer
    return ConditionStarReport(verdict, tuple(witnesses))


def bca_theorem5(base: Preorder, max_layer: int | None = None,
                 star: ConditionStarReport | None = None
                 ) -> ApproximationReport | None:
    """Canonical-completion fast path.

    Returns the unique answer when the layer condition holds strictly, a
    ``complete_set=False`` report when it holds weakly (the canonical
    completion belongs to the answer but other members may exist), and None
    when the condition fails.  ``star`` is the condition (*) report of
    ``base`` when the caller has already computed it.
    """
    report = condition_star(base, max_layer=max_layer) if star is None else star
    if report.verdict == FAILS:
        return None
    canonical = canonical_completion(base)
    return ApproximationReport(
        bca_set=(canonical,),
        distance=top_difference_fast(base, canonical.as_preorder),
        indices=(index_total(canonical),),
        method="theorem5",
        complete_set=report.verdict == STRICT,
    )


def bca_auto(base: Preorder,
             star: ConditionStarReport | None = None) -> ApproximationReport:
    """Cheapest certain route: theorem5 when strict, else duality, else the
    full sweep.  ``star`` is passed on to :func:`bca_theorem5`."""
    try:
        report = bca_theorem5(base, star=star)
    except TooLarge:
        report = None
    if report is not None and report.complete_set:
        return report
    try:
        return bca_duality(base)
    except TooLarge:
        return bca_bruteforce(base)


@record
class CoveringRadiusReport:
    radius: int
    witness: Preorder


def covering_radius(ground: GroundSet, max_n: int | None = None) -> CoveringRadiusReport:
    """Largest best-approximation distance over every preorder on ``ground``,
    with the first preorder attaining it."""
    limit = MAX_COVERING_N if max_n is None else max_n
    if ground.n > limit:
        raise TooLarge(f"covering radius sweep on {ground.n} elements "
                       f"exceeds the guard ({limit}); raise max_n to insist")
    best = -1
    witness: Preorder | None = None
    for p in enumerate_preorders(ground, max_n=limit):
        distance, _ = _backend.sweep_min_distance(p.n, p.strict_up)
        if distance > best:
            best = distance
            witness = p
    assert witness is not None
    return CoveringRadiusReport(best, witness)


__all__ = [
    "ApproximationReport",
    "ConditionStarReport",
    "ConditionStarWitness",
    "CoveringRadiusReport",
    "bca_auto",
    "bca_bruteforce",
    "bca_duality",
    "bca_theorem5",
    "condition_star",
    "covering_radius",
]
