"""Enumeration of total preorders, completions, and canonical completions.

Streams are deterministic: ordered set partitions are produced depth-first
with each block drawn in increasing bitmask order, so two runs over the same
input yield identical sequences.  A stream checks its arguments and its size
guard when called, before it returns its one-shot generator, and refuses
with :class:`TooLarge` rather than truncate: a partial enumeration would
silently corrupt the brute-force oracles built on these streams.

Completions live on the base's class quotient (``Preorder.quotient``): a
completion is an ordered partition of the indifference classes in which every
strict class pair crosses blocks in order.  One unguarded recursion over
class masks, :func:`class_blocks`, serves the three completion streams, the
stream of all total preorders (the completions of the discrete order) and
the index argmax, each of which guards its size once.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import (
    GroundSet,
    Mask,
    Preorder,
    TotalPreorder,
    _check_arguments,
    guard,
    is_completion,
    iter_bits,
    layers,
    mask_of,
    to_total,
)
from .errors import BadParameter

# Conservative guard defaults.  Fubini(9) is ~7.1e6 (the largest sweep any
# acceptance target needs); the 355 preorders on four elements are the
# preorder-universe ceiling.  Callers may override per call.
MAX_TOTAL_ENUM_N = 9
MAX_PREORDER_ENUM_N = 4
MAX_COMPLETION_CLASSES = 9


def enumerate_total_preorders(ground: GroundSet,
                              max_n: int | None = None) -> Iterator[TotalPreorder]:
    """All Fubini(n) total preorders on ``ground``, deterministically: the
    completions of the discrete order, whose classes are its elements."""
    _check_arguments(ground, GroundSet)
    guard(MAX_TOTAL_ENUM_N, max_n, ground.n, "enumerating total preorders")
    return (TotalPreorder(ground, blocks)
            for blocks in class_blocks((0,) * ground.n, ground.full_mask, "all"))


def enumerate_completions(base: Preorder, which: str = "all",
                          max_classes: int | None = None) -> Iterator[TotalPreorder]:
    """Deterministic stream of completions of ``base``.

    ``which`` selects "all", "maximal" (not properly contained in another
    completion), or "strict" (every base-incomparable pair becomes strictly
    ranked).  A maximal block holds a class strictly below one of the
    previous block: merging two consecutive blocks keeps a completion exactly
    when no strict base pair crosses them.  A strict block holds one class:
    the classes a block may draw from are pairwise incomparable.
    """
    _check_arguments(base)
    if which not in ("all", "maximal", "strict"):
        raise BadParameter(f"unknown completion filter: {which!r}")
    q = base.quotient
    k = len(q.classes)
    guard(MAX_COMPLETION_CLASSES, max_classes, k, "enumerating completions",
          "indifference classes")
    return (TotalPreorder(base.ground, tuple(q.expand(b) for b in blocks))
            for blocks in class_blocks(q.up, (1 << k) - 1, which))


def class_blocks(up: tuple[Mask, ...], classes: Mask,
                 which: str) -> Iterator[tuple[Mask, ...]]:
    """Completions restricted to the class mask ``classes`` of a quotient
    whose strict up-sets are ``up``, as tuples of class masks, top block
    first.  Unguarded: each caller guards the classes it asks for."""
    maximal_only = which == "maximal"
    strict_only = which == "strict"
    stack: list[Mask] = []

    def rec(remaining: Mask, prev: Mask) -> Iterator[tuple[Mask, ...]]:
        if remaining == 0:
            yield tuple(stack)
            return
        # a class may enter the next block only if every class strictly
        # above it is already placed
        placeable = 0
        for c in iter_bits(remaining):
            if up[c] & remaining == 0:
                placeable |= 1 << c
        # the block must meet ``required``; strict blocks hold one class
        # (see enumerate_completions)
        required = placeable
        if maximal_only and prev:
            required = mask_of(c for c in iter_bits(placeable) if up[c] & prev)
        s = (0 - placeable) & placeable
        while s:
            if s & required and not (strict_only and s & (s - 1)):
                stack.append(s)
                yield from rec(remaining & ~s, s)
                stack.pop()
            s = (s - placeable) & placeable

    return rec(classes, 0)


def is_maximal_completion(cand: Preorder, base: Preorder) -> bool:
    """True iff no completion of ``base`` properly contains ``cand``: every
    two consecutive blocks of ``cand`` are crossed by a strict base pair.
    Raises NotTotal when ``cand`` is not total."""
    cand = to_total(cand)
    if not is_completion(cand, base):
        raise BadParameter("candidate does not complete the base relation")
    below = base.strict_down
    for upper, lower in zip(cand.blocks, cand.blocks[1:]):
        if not any(below[x] & lower for x in iter_bits(upper)):
            return False
    return True


def canonical_completion(base: Preorder) -> TotalPreorder:
    """Total preorder whose blocks are the iterated maximal layers of ``base``."""
    _check_arguments(base)
    return TotalPreorder(base.ground, layers(base))


def enumerate_preorders(ground: GroundSet,
                        max_n: int | None = None) -> Iterator[Preorder]:
    """Every preorder on ``ground`` exactly once, in increasing order of the
    off-diagonal bit pattern (row 0 least significant) for reproducibility."""
    _check_arguments(ground, GroundSet)
    guard(MAX_PREORDER_ENUM_N, max_n, ground.n, "enumerating preorders")
    return (Preorder(ground, rows) for rows in _preorder_rows(ground.n))


def _preorder_rows(n: int) -> Iterator[tuple[Mask, ...]]:
    """The incidence rows of every preorder on n elements, unguarded, in the
    order of :func:`enumerate_preorders`.

    Rows are assigned from the last element down, each row's off-diagonal
    bits in increasing order.  A choice whose assigned rows are not
    transitive among themselves is abandoned (every restriction of a
    preorder is a preorder), so the rows yielded need no further check.
    """
    rows = [0] * n

    def rec(i: int, above: Mask) -> Iterator[tuple[Mask, ...]]:
        # rows of ``above`` (elements i+1..n-1) are assigned and transitive
        # among themselves; extend that to i, checking only triples with i
        if i < 0:
            yield tuple(rows)
            return
        bit = 1 << i
        ups = 0  # assigned elements whose rows put them weakly above i
        for h in iter_bits(above):
            if rows[h] & bit:
                ups |= 1 << h
        cap = above  # h >= i >= j needs h >= j: row i inside every up row
        for h in iter_bits(above):
            if (ups >> h) & 1:
                cap &= rows[h]
            elif rows[h] & ups:
                return  # h >= j >= i without h >= i
        # row i's bits inside ``above`` must be closed under going down;
        # its bits below i name unassigned elements and are checked later
        for hi in _subsets(cap):
            if all(rows[j] & above & ~hi == 0 for j in iter_bits(hi)):
                for lo in _subsets(bit - 1):
                    rows[i] = bit | hi | lo
                    yield from rec(i - 1, above | bit)

    yield from rec(n - 1, 0)


def _subsets(mask: Mask) -> Iterator[Mask]:
    """Every subset of ``mask`` in increasing order, the empty one first."""
    s = 0
    while True:
        yield s
        s = (s - mask) & mask
        if s == 0:
            return
