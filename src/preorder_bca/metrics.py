"""The two distances between preorders on a common ground set.

The top-difference semimetric aggregates, over every nonempty menu, how many
elements one relation picks as maximal that the other does not.  It comes in
two forms that must agree exactly: the definitional menu sweep
(:func:`top_difference_direct`, exponential, capped) and the closed form over
strict up-set sizes (:func:`top_difference_fast`, polynomial, uncapped).  The
Kemeny-Snell-Bogart (KSB) metric simply counts pairwise disagreements, and
its least value from a base has a closed form
(:func:`verify_strict_optimality`).

Empty menus contribute nothing (maxima are undefined there), which is the
convention that makes the two computations of the semimetric coincide.
"""

from __future__ import annotations

from . import _backend
from ._record import record
from .core import Preorder, TotalPreorder, _require_same_ground, guard

MAX_DIRECT_N = 20


def top_difference_direct(p: Preorder, q: Preorder,
                          max_n: int | None = None) -> int:
    """Definitional semimetric: sum of menu deltas over all nonempty menus.

    Regrouped per element (count the menus on which an element's maximality
    differs), which costs O(2^n * n) rather than O(2^n * n^2); guarded since
    it is exponential either way.
    """
    _require_same_ground(p, q)
    guard(MAX_DIRECT_N, max_n, p.n, "direct menu sweep")
    # x is maximal in the menu t | {x} iff t misses x's strict dominators:
    # count the t of the other elements meeting exactly one of the two up-sets
    total = 0
    for x, (a, b) in enumerate(zip(p.strict_up, q.strict_up)):
        rest = p.ground.full_mask & ~(1 << x)
        t = rest
        while True:
            total += ((t & a) == 0) != ((t & b) == 0)
            if not t:
                break
            t = (t - 1) & rest
    return total


def top_difference_fast(p: Preorder, q: Preorder) -> int:
    """Closed-form semimetric; agrees exactly with the direct sweep."""
    _require_same_ground(p, q)
    return _backend.fast_distance(p.n, p.strict_up, q.strict_up)


def ksb_distance(p: Preorder, q: Preorder) -> int:
    """Kemeny-Snell-Bogart metric: ordered pairs in exactly one relation."""
    _require_same_ground(p, q)
    return sum((a ^ b).bit_count() for a, b in zip(p.rows, q.rows))


@record
class StrictCompletionReport:
    """The least KSB distance from a base to a total preorder, and the strict
    completions of the base, which are exactly the total preorders at it."""

    minimum: int
    strict_completions: tuple[TotalPreorder, ...]


def verify_strict_optimality(base: Preorder,
                             max_classes: int | None = None) -> StrictCompletionReport:
    """The least KSB distance from ``base`` to a total preorder is the number
    of its incomparable pairs, and the strict completions attain it.

    Proof: a pair the base ranks or ties costs 0 when the total preorder
    agrees on it and at least 1 otherwise; an incomparable pair costs 1 when
    ranked and 2 when tied.  So every total preorder is at least that far,
    with equality exactly for the strict completions, and a linear extension
    of the quotient is one.  The completion stream's class guard is the only
    guard.
    """
    from .completions import enumerate_completions

    strict = tuple(enumerate_completions(base, "strict", max_classes=max_classes))
    full = base.ground.full_mask
    minimum = sum((full & ~(row | up)).bit_count()
                  for row, up in zip(base.rows, base.strict_up)) // 2
    return StrictCompletionReport(minimum, strict)
