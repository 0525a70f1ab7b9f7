"""The two distances between preorders on a common ground set.

The top-difference semimetric aggregates, over every nonempty menu, how many
elements one relation picks as maximal that the other does not.  It comes in
two forms that must agree exactly: the definitional menu sweep
(:func:`top_difference_direct`, exponential, capped) and the closed form over
strict up-set sizes (:func:`top_difference_fast`, polynomial, uncapped).  The
Kemeny-Snell-Bogart metric simply counts pairwise disagreements.

Empty menus contribute nothing (maxima are undefined there), which is the
convention that makes the two computations of the semimetric coincide.
"""

from __future__ import annotations

from . import _backend
from ._record import record
from .core import Preorder, TotalPreorder, _check_arguments, _require_same_ground, guard

MAX_DIRECT_N = 20
MAX_STRICT_OPT_N = 5


def top_difference_direct(p: Preorder, q: Preorder,
                          max_n: int | None = None) -> int:
    """Definitional semimetric: sum of menu deltas over all nonempty menus.

    Regrouped per element (count the menus on which an element's maximality
    differs), which costs O(2^n * n) rather than O(2^n * n^2); guarded since
    it is exponential either way.
    """
    _require_same_ground(p, q)
    guard(MAX_DIRECT_N, max_n, p.n, "direct menu sweep")
    return _backend.direct_distance(p.n, p.strict_up, q.strict_up)


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
    """Result of checking that strict completions minimize the KSB distance."""

    minimum: int
    attaining: tuple[TotalPreorder, ...]
    strict_completions: tuple[TotalPreorder, ...]

    @property
    def all_strict_attain(self) -> bool:
        return set(self.strict_completions) <= set(self.attaining)


def verify_strict_optimality(base: Preorder, max_n: int | None = None) -> StrictCompletionReport:
    """Minimize the KSB distance over every total preorder and report whether
    each strict completion of ``base`` attains the minimum."""
    from .completions import class_blocks, enumerate_completions

    _check_arguments(base)
    limit = guard(MAX_STRICT_OPT_N, max_n, base.n, "strict-optimality sweep")
    strict = tuple(enumerate_completions(base, "strict", max_classes=limit))
    best: int | None = None
    attaining: list[TotalPreorder] = []
    for blocks in class_blocks((0,) * base.n, base.ground.full_mask, "all"):
        cand = TotalPreorder(base.ground, blocks)
        d = ksb_distance(base, cand)
        if best is None or d < best:
            best = d
            attaining = [cand]
        elif d == best:
            attaining.append(cand)
    assert best is not None
    return StrictCompletionReport(best, tuple(attaining), strict)
