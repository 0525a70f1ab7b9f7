"""Scores, the index of a preorder, and its dyadic normalization.

Scores are powers of two and the index of an n-element relation can reach
n * 2^n, so everything here uses exact arbitrary-precision integers (plain
Python ``int``).  The normalized index and the layer-size composition law are
exact identities, so they are computed over :class:`DyadicRational` rather
than floats.
"""

from __future__ import annotations

from ._record import record
from .core import Preorder, TotalPreorder, down_set
from .errors import BadParameter, EmptySequence


@record
class DyadicRational:
    """Exact value numerator / 2^exponent, kept in canonical form."""

    numerator: int
    exponent: int

    def __post_init__(self):
        num, exp = self.numerator, self.exponent
        if exp < 0:
            raise BadParameter("exponent must be nonnegative")
        if num == 0:
            exp = 0
        else:
            while num % 2 == 0 and exp > 0:
                num //= 2
                exp -= 1
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "exponent", exp)

    @classmethod
    def from_int(cls, value: int) -> "DyadicRational":
        return cls(value, 0)

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        e = max(self.exponent, other.exponent)
        num = (self.numerator << (e - self.exponent)) + \
              (other.numerator << (e - other.exponent))
        return DyadicRational(num, e)

    def __mul__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational(self.numerator * other.numerator,
                              self.exponent + other.exponent)

    def scaled_pow2(self, k: int) -> "DyadicRational":
        """The value times 2^k (k may be negative)."""
        if k >= self.exponent:
            return DyadicRational(self.numerator << (k - self.exponent), 0)
        return DyadicRational(self.numerator, self.exponent - k)

    def as_integer(self) -> int:
        if self.exponent != 0:
            raise BadParameter(f"{self} is not an integer")
        return self.numerator

    def __lt__(self, other: "DyadicRational") -> bool:
        e = max(self.exponent, other.exponent)
        return (self.numerator << (e - self.exponent)) < \
               (other.numerator << (e - other.exponent))

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/2^{self.exponent}"


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


def index_total(p: TotalPreorder) -> int:
    """Sum of scores over all elements."""
    return index_total_from_sizes(p.block_sizes())


def index_general(p: Preorder, max_classes: int | None = None) -> int:
    """Index of an arbitrary preorder: the largest index of any completion.

    The index is strictly increasing in relation containment, so maximizing
    over all completions and over maximal completions agree; the full stream
    is cheaper than maximality filtering.
    """
    from .completions import enumerate_completions

    best = 0
    for cand in enumerate_completions(p, "all", max_classes=max_classes):
        value = index_total(cand)
        if value > best:
            best = value
    return best


def normalized_index(p: TotalPreorder) -> DyadicRational:
    """Normalized index: sum over x of 2^-(strict dominators of x).

    Satisfies 2^n * normalized_index(p) == index_total(p) exactly.
    """
    total = DyadicRational(0, 0)
    above = 0
    for b in p.blocks:
        total = total + DyadicRational(b.bit_count(), above)
        above += b.bit_count()
    return total


def layer_composition(sizes) -> DyadicRational:
    """Compose block sizes: f(n1..nk) = n1 + sum of ni * 2^-(n1+..+n(i-1)).

    For every total preorder, the normalized index equals this function
    applied to its block sizes, and the value splits exactly at any cut:
    f(n1..nl) = f(n1..nk) + 2^-(n1+..+nk) * f(n(k+1)..nl).
    """
    sizes = tuple(sizes)
    if not sizes:
        raise EmptySequence("need at least one layer size")
    total = DyadicRational(0, 0)
    prefix = 0
    for size in sizes:
        total = total + DyadicRational(size, prefix)
        prefix += size
    return total
