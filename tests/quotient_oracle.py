"""Definitional routes the package replaced, kept as oracles.

Most functions here are element-level routes that predate
``Preorder.quotient``: each derives the indifference classes or the class
order from the preorder's element rows on its own, the way the package did
before every route read one cached quotient: an O(k^2) ``holds`` loop for
class dominators, ``maximal_elements`` rescans for the layers, a pairwise
transitive reduction for the Hasse edges, and condition (*)'s inner index on
a restricted ``Preorder`` per Y.  ``bca_duality`` is the duality route from
before the index argmax moved into ``scoring.class_index``: it prices every
completion, maximal or not, as a ``TotalPreorder``.  ``ksb_minimisers`` is
the scan that ``metrics.verify_strict_optimality`` replaced by its closed
form: it prices every total preorder by the KSB distance.
"""

from __future__ import annotations

from preorder_bca import (
    GroundSet,
    Preorder,
    TotalPreorder,
    enumerate_completions,
    enumerate_total_preorders,
    ksb_distance,
    maximal_elements,
    top_difference_fast,
)
from preorder_bca.completions import MAX_COMPLETION_CLASSES
from preorder_bca.core import class_label, iter_bits
from preorder_bca.errors import BadParameter, TooLarge
from preorder_bca.scoring import index_total
from preorder_bca.solver import (
    FAILS,
    MAX_CONDITION_LAYER,
    STRICT,
    WEAK,
    ApproximationReport,
    ConditionStarReport,
    ConditionStarWitness,
)


def restrict(p: Preorder, members: int) -> Preorder:
    """Restriction of ``p`` to ``members``; labels are preserved."""
    if members == 0:
        raise BadParameter("cannot restrict to the empty set")
    keep = tuple(iter_bits(members))
    ground = GroundSet(tuple(p.ground.labels[i] for i in keep))
    rows = []
    for i in keep:
        row = 0
        for new_j, j in enumerate(keep):
            if (p.rows[i] >> j) & 1:
                row |= 1 << new_j
        rows.append(row)
    return Preorder(ground, tuple(rows))


def indifference_classes(p: Preorder) -> tuple[int, ...]:
    """Symmetric-part equivalence classes, from a ``holds`` loop, ordered by
    smallest member."""
    seen = 0
    classes = []
    for i in range(p.n):
        if (seen >> i) & 1:
            continue
        cls = sum(1 << j for j in range(p.n) if p.holds(i, j) and p.holds(j, i))
        classes.append(cls)
        seen |= cls
    return tuple(classes)


def completions(base: Preorder, which: str = "all"):
    """The completion stream, with class dominators from a ``holds`` loop."""
    classes = indifference_classes(base)
    k = len(classes)
    if k > MAX_COMPLETION_CLASSES:
        raise TooLarge(f"base has {k} indifference classes; completion "
                       f"enumeration guard is {MAX_COMPLETION_CLASSES}")
    reps = [(c & -c).bit_length() - 1 for c in classes]
    dominators = [0] * k
    for a in range(k):
        for b in range(k):
            if a != b and base.holds(reps[a], reps[b]):
                dominators[b] |= 1 << a
    stack: list[int] = []

    def expand(class_mask):
        m = 0
        for c in iter_bits(class_mask):
            m |= classes[c]
        return m

    def rec(remaining, prev):
        if remaining == 0:
            yield TotalPreorder(base.ground, tuple(expand(cm) for cm in stack))
            return
        placeable = 0
        for c in iter_bits(remaining):
            if dominators[c] & remaining == 0:
                placeable |= 1 << c
        required = placeable
        if which == "maximal" and prev:
            required = 0
            for c in iter_bits(placeable):
                if dominators[c] & prev:
                    required |= 1 << c
        s = (0 - placeable) & placeable
        while s:
            if s & required and not (which == "strict" and s & (s - 1)):
                stack.append(s)
                yield from rec(remaining & ~s, s)
                stack.pop()
            s = (s - placeable) & placeable

    yield from rec((1 << k) - 1, 0)


def layers(p: Preorder) -> tuple[int, ...]:
    """Iterated maximal layers, one ``maximal_elements`` scan per layer."""
    out = []
    remaining = p.ground.full_mask
    while remaining:
        m = maximal_elements(p, remaining)
        out.append(m)
        remaining &= ~m
    return tuple(out)


def hasse_edges(p: Preorder) -> tuple[tuple[str, str], ...]:
    """Pairwise transitive reduction of the strict class order."""
    classes = indifference_classes(p)
    reps = [(c & -c).bit_length() - 1 for c in classes]
    k = len(classes)
    above = [[a != b and p.holds(reps[a], reps[b]) for b in range(k)]
             for a in range(k)]
    edges = []
    for a in range(k):
        for b in range(k):
            if above[a][b] and not any(above[a][c] and above[c][b]
                                       for c in range(k)):
                edges.append((class_label(p, classes[a]),
                              class_label(p, classes[b])))
    return tuple(sorted(edges))


def index_general(p: Preorder) -> int:
    """Largest index of a completion, each built as a ``TotalPreorder``."""
    return max(index_total(c) for c in completions(p))


def condition_star(base: Preorder) -> ConditionStarReport:
    """Condition (*), the inner index taken on ``restrict(base, Y)``."""
    layer_masks = layers(base)
    for i, layer in enumerate(layer_masks, start=1):
        size = layer.bit_count()
        if size >= 2 and size > MAX_CONDITION_LAYER:
            raise TooLarge(f"layer {i} has {size} elements; the 2^|layer| "
                           f"subset sweep guard is {MAX_CONDITION_LAYER}")
    verdict = STRICT
    witnesses = []
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


def bca_duality(base: Preorder) -> ApproximationReport:
    """The argmax of ``index_total`` over every completion of ``base``."""
    best = None
    argmax = []
    for cand in enumerate_completions(base, "all"):
        value = index_total(cand)
        if best is None or value > best:
            best = value
            argmax = [cand]
        elif value == best:
            argmax.append(cand)
    ordered = tuple(sorted(argmax, key=lambda c: c.blocks))
    return ApproximationReport(
        bca_set=ordered,
        distance=top_difference_fast(base, ordered[0]),
        index=best,
        method="duality",
    )


def ksb_minimisers(base: Preorder) -> tuple[int, set[TotalPreorder]]:
    """The least KSB distance from ``base`` over all Fubini(n) total
    preorders, and the set of those attaining it."""
    best = None
    attaining = set()
    for cand in enumerate_total_preorders(base.ground, max_n=base.n):
        d = ksb_distance(base, cand)
        if best is None or d < best:
            best = d
            attaining = {cand}
        elif d == best:
            attaining.add(cand)
    return best, attaining
