"""Scores, the index of a preorder, and its dyadic normalization.

Scores are powers of two and the index of an n-element relation can reach
n * 2^n, so everything here uses exact arbitrary-precision integers (plain
Python ``int``).  The normalized index and the layer-size composition law are
exact identities, so they are ``fractions.Fraction`` values, not floats;
``fractions`` is imported only when they are asked for.
"""

from __future__ import annotations

from .completions import MAX_COMPLETION_CLASSES, class_blocks
from .core import (Mask, Preorder, Quotient, _check_arguments, down_set, guard,
                   iter_bits, to_total)
from .errors import BadParameter


def score(p: Preorder, x: int) -> int:
    """2 to the size of x's weak down-set (the number of its subsets)."""
    return 1 << down_set(p, x).bit_count()


def index_total_from_sizes(sizes) -> int:
    """Index of a total preorder given its block sizes, top block first.

    Members of block i weakly dominate their own block and everything below,
    so each contributes 2^(suffix sum).
    """
    total = 0
    below = sum(sizes)
    for size in sizes:
        total += size << below
        below -= size
    return total


def index_total(p: Preorder) -> int:
    """Sum of scores over all elements of a total preorder; raises NotTotal
    for any other preorder."""
    return index_total_from_sizes(to_total(p).block_sizes())


def index_general(p: Preorder, max_classes: int | None = None) -> int:
    """Index of an arbitrary preorder: the largest index of any completion."""
    _check_arguments(p)
    return class_index(p.quotient, (1 << len(p.quotient.classes)) - 1,
                       max_classes)[0]


def class_index(q: Quotient, classes: Mask, max_classes: int | None = None
                ) -> tuple[int, tuple[tuple[Mask, ...], ...]]:
    """Index of a preorder restricted to the class mask ``classes`` of its
    quotient ``q``, and every completion attaining it (class masks, top block
    first).  The index grows strictly with containment, so only maximal
    completions are priced, each from its class sizes."""
    guard(MAX_COMPLETION_CLASSES, max_classes, classes.bit_count(),
          "enumerating completions", "indifference classes")
    sizes = q.sizes
    best, ties = -1, []
    for blocks in class_blocks(q.up, classes, "maximal"):
        value = index_total_from_sizes(
            [sum(sizes[c] for c in iter_bits(b)) for b in blocks])
        if value > best:
            best, ties = value, [blocks]
        elif value == best:
            ties.append(blocks)
    return best, tuple(ties)


def normalized_index(p: Preorder):
    """Normalized index, an exact ``fractions.Fraction``: the sum over x of
    2^-(strict dominators of x), which is :func:`layer_composition` of the
    block sizes.

    Satisfies 2^n * normalized_index(p) == index_total(p) exactly; raises
    NotTotal when ``p`` is not total.
    """
    return layer_composition(to_total(p).block_sizes())


def layer_composition(sizes):
    """Compose block sizes: f(n1..nk) = n1 + sum of ni * 2^-(n1+..+n(i-1)),
    an exact ``fractions.Fraction``.

    For every total preorder, the normalized index equals this function
    applied to its block sizes, and the value splits exactly at any cut:
    f(n1..nl) = f(n1..nk) + 2^-(n1+..+nk) * f(n(k+1)..nl).
    """
    from fractions import Fraction

    if not isinstance(sizes, (tuple, list)):
        raise BadParameter(f"layer sizes must be a list or tuple, got {sizes!r}")
    if not sizes:
        raise BadParameter("need at least one layer size")
    total = Fraction(0)
    prefix = 0
    for size in sizes:
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise BadParameter(f"layer sizes must be positive integers, got {size!r}")
        total += Fraction(size, 1 << prefix)
        prefix += size
    return total
