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
from .core import (Mask, Preorder, TotalPreorder, _require_same_ground,
                   maximal_elements)
from .errors import EmptySubset, TooLarge

MAX_DIRECT_N = 20
MAX_STRICT_OPT_N = 5


@record
class MenuDelta:
    menu: Mask
    delta: int


@record
class DominationProfile:
    """Per-element counts from the closed-form derivation.

    ``neither[x]`` counts the elements (other than x) strictly above x in
    neither relation; ``only_first``/``only_second`` count those strictly
    above x in exactly one of them.
    """

    neither: tuple[int, ...]
    only_first: tuple[int, ...]
    only_second: tuple[int, ...]


def delta_menu(p: Preorder, q: Preorder, s: Mask) -> MenuDelta:
    """Size of the symmetric difference of the two maximal sets on menu ``s``."""
    _require_same_ground(p, q)
    if s == 0:
        raise EmptySubset("menus are nonempty")
    diff = maximal_elements(p, s) ^ maximal_elements(q, s)
    return MenuDelta(s, diff.bit_count())


def top_difference_direct(p: Preorder, q: Preorder,
                          max_n: int | None = None) -> int:
    """Definitional semimetric: sum of menu deltas over all nonempty menus.

    Regrouped per element (count the menus on which an element's maximality
    differs), which costs O(2^n * n) rather than O(2^n * n^2); guarded since
    it is exponential either way.
    """
    _require_same_ground(p, q)
    limit = MAX_DIRECT_N if max_n is None else max_n
    if p.n > limit:
        raise TooLarge(f"direct menu sweep on {p.n} elements exceeds the "
                       f"guard ({limit}); raise max_n to insist")
    return _backend.direct_distance(p.n, p.strict_up, q.strict_up)


def domination_profile(p: Preorder, q: Preorder) -> DominationProfile:
    _require_same_ground(p, q)
    n = p.n
    neither, first, second = [], [], []
    for x in range(n):
        a, b = p.strict_up[x], q.strict_up[x]
        neither.append(n - 1 - (a | b).bit_count())
        first.append((a & ~b).bit_count())
        second.append((b & ~a).bit_count())
    return DominationProfile(tuple(neither), tuple(first), tuple(second))


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
        attained = {c.blocks for c in self.attaining}
        return all(c.blocks in attained for c in self.strict_completions)


def verify_strict_optimality(base: Preorder, max_n: int | None = None) -> StrictCompletionReport:
    """Minimize the KSB distance over every total preorder and report whether
    each strict completion of ``base`` attains the minimum."""
    from .completions import enumerate_completions, enumerate_total_preorders

    limit = MAX_STRICT_OPT_N if max_n is None else max_n
    if base.n > limit:
        raise TooLarge(f"strict-optimality sweep on {base.n} elements exceeds "
                       f"the guard ({limit}); raise max_n to insist")
    best: int | None = None
    attaining: list[TotalPreorder] = []
    for cand in enumerate_total_preorders(base.ground, max_n=limit):
        d = ksb_distance(base, cand.as_preorder)
        if best is None or d < best:
            best = d
            attaining = [cand]
        elif d == best:
            attaining.append(cand)
    strict = tuple(enumerate_completions(base, "strict"))
    assert best is not None
    return StrictCompletionReport(best, tuple(attaining), strict)
