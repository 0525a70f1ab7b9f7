"""Enumeration of total preorders, completions, and canonical completions.

Streams are deterministic: ordered set partitions are produced depth-first
with each block drawn in increasing bitmask order, so two runs over the same
input yield identical sequences.  Size guards raise :class:`TooLarge` up
front instead of truncating, since a partial enumeration would silently
corrupt the brute-force oracles built on top of these streams.
"""

from __future__ import annotations

from typing import Iterator

from ._record import record
from .core import (
    GroundSet,
    Mask,
    Preorder,
    TotalPreorder,
    indifference_classes,
    is_completion,
    iter_bits,
    layers,
    rows_violations,
)
from .errors import NotACompletion, TooLarge

# Conservative guard defaults.  Fubini(9) is ~7.1e6 (the largest sweep any
# acceptance target needs); 2^(4*3) transitivity-filtered patterns is the
# preorder-universe ceiling.  Callers may override per call.
MAX_TOTAL_ENUM_N = 9
MAX_PREORDER_ENUM_N = 4
MAX_COMPLETION_CLASSES = 9
MAX_MAXIMAL_CANDIDATES = 20_000


def enumerate_ordered_partitions(items: Mask) -> Iterator[tuple[Mask, ...]]:
    """Every ordered set partition of the bits of ``items``, blocks in
    increasing bitmask order at each depth."""
    stack: list[Mask] = []

    def rec(remaining: Mask):
        if remaining == 0:
            yield tuple(stack)
            return
        s = (0 - remaining) & remaining
        while True:
            stack.append(s)
            yield from rec(remaining & ~s)
            stack.pop()
            s = (s - remaining) & remaining
            if s == 0:
                break

    yield from rec(items)


def enumerate_total_preorders(ground: GroundSet,
                              max_n: int | None = None) -> Iterator[TotalPreorder]:
    """All Fubini(n) total preorders on ``ground``, deterministically."""
    limit = MAX_TOTAL_ENUM_N if max_n is None else max_n
    if ground.n > limit:
        raise TooLarge(f"enumerating total preorders on {ground.n} elements "
                       f"exceeds the guard ({limit}); raise max_n to insist")
    for blocks in enumerate_ordered_partitions(ground.full_mask):
        yield TotalPreorder(ground, blocks)


@record
class CompletionStream:
    """Deterministic stream of completions of ``base``.

    ``which`` selects "all", "maximal" (not properly contained in another
    completion), or "strict" (every base-incomparable pair becomes strictly
    ranked).
    """

    base: Preorder
    which: str = "all"
    max_classes: int | None = None
    max_candidates: int | None = None

    def __post_init__(self):
        if self.which not in ("all", "maximal", "strict"):
            raise ValueError(f"unknown completion filter: {self.which!r}")

    def __iter__(self) -> Iterator[TotalPreorder]:
        if self.which == "maximal":
            yield from _maximal_completions(self.base, self.max_classes,
                                            self.max_candidates)
        else:
            strict_only = self.which == "strict"
            yield from _completions(self.base, strict_only, self.max_classes)


def enumerate_completions(base: Preorder, which: str = "all",
                          max_classes: int | None = None,
                          max_candidates: int | None = None) -> CompletionStream:
    return CompletionStream(base, which, max_classes, max_candidates)


def _completions(base: Preorder, strict_only: bool,
                 max_classes: int | None) -> Iterator[TotalPreorder]:
    # Work on the indifference-class quotient: indifferent elements can never
    # be separated by a completion, and a completion is exactly an ordered
    # set partition of the classes in which every strictly-ordered class pair
    # crosses blocks in order.
    classes = indifference_classes(base)
    k = len(classes)
    limit = MAX_COMPLETION_CLASSES if max_classes is None else max_classes
    if k > limit:
        raise TooLarge(f"base has {k} indifference classes; completion "
                       f"enumeration guard is {limit}")
    reps = [(c & -c).bit_length() - 1 for c in classes]
    # strict class order, as masks over class indices
    dominators = [0] * k
    for a in range(k):
        for b in range(k):
            if a != b and base.holds(reps[a], reps[b]):
                dominators[b] |= 1 << a
    full = (1 << k) - 1
    stack: list[int] = []

    def rec(remaining: int) -> Iterator[TotalPreorder]:
        if remaining == 0:
            yield TotalPreorder(
                base.ground,
                tuple(_expand(classes, cm) for cm in stack),
            )
            return
        # a class may enter the next block only if all its strict dominators
        # are already placed
        placeable = 0
        for c in iter_bits(remaining):
            if dominators[c] & remaining == 0:
                placeable |= 1 << c
        s = (0 - placeable) & placeable
        while s:
            if not (strict_only and s.bit_count() > 1 and _merges_incomparable(s, reps, base)):
                stack.append(s)
                yield from rec(remaining & ~s)
                stack.pop()
            s = (s - placeable) & placeable

    yield from rec(full)


def _expand(classes, class_mask: int) -> Mask:
    m = 0
    for c in iter_bits(class_mask):
        m |= classes[c]
    return m


def _merges_incomparable(class_mask: int, reps, base: Preorder) -> bool:
    chosen = list(iter_bits(class_mask))
    for i, a in enumerate(chosen):
        for b in chosen[i + 1:]:
            if not base.holds(reps[a], reps[b]) and not base.holds(reps[b], reps[a]):
                return True
    return False


def _maximal_completions(base: Preorder, max_classes: int | None,
                         max_candidates: int | None) -> Iterator[TotalPreorder]:
    # Post-filter the full list with pairwise containment tests.  Containment
    # of total preorders implies a weakly larger pair count, so candidates
    # are bucketed by pair count to skip most comparisons.
    limit = MAX_MAXIMAL_CANDIDATES if max_candidates is None else max_candidates
    candidates: list[TotalPreorder] = []
    for cand in _completions(base, False, max_classes):
        candidates.append(cand)
        if len(candidates) > limit:
            raise TooLarge(f"more than {limit} completions to filter for "
                           f"maximality; raise max_candidates to insist")
    rows_list = [c.as_preorder.rows for c in candidates]
    counts = [sum(r.bit_count() for r in rows) for rows in rows_list]
    for i, cand in enumerate(candidates):
        contained = False
        for j in range(len(candidates)):
            if counts[j] <= counts[i] or i == j:
                continue
            if all(a & ~b == 0 for a, b in zip(rows_list[i], rows_list[j])):
                contained = True
                break
        if not contained:
            yield cand


def is_maximal_completion(cand: TotalPreorder, base: Preorder) -> bool:
    """Exhaustive check: no completion of ``base`` properly contains ``cand``."""
    if not is_completion(cand, base):
        raise NotACompletion("candidate does not complete the base relation")
    cand_rows = cand.as_preorder.rows
    cand_count = sum(r.bit_count() for r in cand_rows)
    for other in _completions(base, False, None):
        rows = other.as_preorder.rows
        if sum(r.bit_count() for r in rows) <= cand_count:
            continue
        if all(a & ~b == 0 for a, b in zip(cand_rows, rows)):
            return False
    return True


def canonical_completion(base: Preorder) -> TotalPreorder:
    """Total preorder whose blocks are the iterated maximal layers of ``base``."""
    return TotalPreorder(base.ground, layers(base))


def enumerate_preorders(ground: GroundSet,
                        max_n: int | None = None) -> Iterator[Preorder]:
    """Every preorder on ``ground`` exactly once.

    Brute force over all off-diagonal bit patterns with a transitivity
    filter; patterns are visited in increasing numeric order for
    reproducibility.
    """
    limit = MAX_PREORDER_ENUM_N if max_n is None else max_n
    n = ground.n
    if n > limit:
        raise TooLarge(f"enumerating preorders on {n} elements exceeds the "
                       f"guard ({limit}); raise max_n to insist")
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng = range(n)
    for pattern in range(1 << len(offdiag)):
        rows = [1 << i for i in rng]
        for bit, (i, j) in enumerate(offdiag):
            if (pattern >> bit) & 1:
                rows[i] |= 1 << j
        # transitive iff no row can reach anything outside itself in one hop
        for i in rng:
            row = rows[i]
            reach = 0
            for j in iter_bits(row):
                reach |= rows[j]
            if reach & ~row:
                break
        else:
            yield Preorder(ground, tuple(rows))
