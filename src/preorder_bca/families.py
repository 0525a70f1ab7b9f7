"""Generators for the studied order families and their closed-form answers.

Label conventions are fixed so fixtures and DOT output diff cleanly:

* containment: base elements are letters ``a, b, ...``; subsets render as
  ``{a,c}`` with sorted members, the empty set as ``{}``.  Ground order is
  increasing subset bitmask.
* refinement: partitions render as cells of concatenated sorted members
  joined by ``|`` (e.g. ``ab|c``), cells ordered by smallest member.  Ground
  order is the enumeration order of restricted growth strings.
* words: plain strings over ``a`` .. ``z``, so an alphabet has at most 26
  letters; ground order is by length, then lexicographic.
* grids: ``(i,j)`` with 1-based coordinates, row-major ground order.
* fence/crown/chain/equality/indifferent: ``x1 .. xn``.

Fence and crown follow the usual zigzag and bipartite patterns: the fence
alternates x1 < x2 > x3 < x4 ..., the crown puts each bottom below every top
except its partner (bottom x_{2i-1} is incomparable to top x_{2i+2},
cyclically).  The size-6 cover edges are spelled out in the test fixtures;
prose conventions for these posets vary, so the predicates here are the
contract.

Each kind is one :data:`FAMILIES` entry: a function of its parameters gives
the points (drawn lazily), their labels, the order predicate ``a >= b`` and a
rank; the closed-form best approximation puts the highest rank on top.
:class:`FamilySpec` is the one way to build a family and its answer.
"""

from __future__ import annotations

from itertools import islice, product

from ._record import lazy, record
from .core import (MAX_GROUND, GroundSet, Preorder, TotalPreorder, iter_bits,
                   mask_of)
from .errors import BadParameter

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _spell(mask: int) -> str:
    return "".join(_LETTERS[i] for i in iter_bits(mask))


def _containment(z: int):
    return (range(1 << z), lambda m: "{" + ",".join(_spell(m)) + "}",
            lambda a, b: b & ~a == 0, int.bit_count)


def _partitions(z: int, i: int = 0, cells: tuple = ()):
    # restricted growth strings: element i joins each cell, then opens one
    if i == z:
        yield cells
        return
    for c in range(len(cells)):
        yield from _partitions(z, i + 1,
                               cells[:c] + (cells[c] | 1 << i,) + cells[c + 1:])
    yield from _partitions(z, i + 1, cells + (1 << i,))


def _refinement(z: int):
    # a partition is its cells' masks; the coarser one is weakly above
    return (_partitions(z), lambda cells: "|".join(map(_spell, cells)),
            lambda big, fine: all(any(c & ~b == 0 for b in big) for c in fine),
            lambda cells: -len(cells))


def _words(alphabet: int, k: int):
    if alphabet > len(_LETTERS):
        raise BadParameter(f"alphabet size must be at most {len(_LETTERS)} "
                           f"(letters a..z), got {alphabet}")
    words = ("".join(w) for length in range(1, k + 1)
             for w in product(_LETTERS[:alphabet], repeat=length))
    return words, str, str.startswith, len


def _grid(m: int):
    return (product(range(1, m + 1), repeat=2), lambda p: f"({p[0]},{p[1]})",
            lambda a, b: a[0] >= b[0] and a[1] >= b[1], sum)


# the elements x1 .. xn, drawn as positions 0 .. n-1
def _xs(n: int, ge, rank):
    return range(n), lambda i: f"x{i + 1}", ge, rank


def _bipartite(k: int, above):
    # top t (x_{2t+2}) is above bottom b (x_{2b+1}) iff above(t, b, k // 2)
    if k < 4 or k % 2:
        raise BadParameter("fence and crown sizes must be even and at least 4")
    return _xs(k, lambda x, y: x == y or x % 2 > y % 2
               and above(x // 2, y // 2, k // 2), lambda i: i % 2)


# kind -> (parameter names, function of them giving (points, label, ge, rank))
FAMILIES = {
    # A >= B iff A contains B, over the subsets of a z-element set; larger
    # subsets on top
    "containment": (("z",), _containment),
    # S >= T iff every cell of T sits inside a cell of S; fewer cells on top
    "refinement": (("z",), _refinement),
    # x >= y iff y is an initial substring of x; longer words on top
    "word_prefix": (("alphabet", "k"), _words),
    # the product order on the m-by-m grid; larger coordinate sums on top
    "coordinatewise": (("m",), _grid),
    # the zigzag x1 < x2 > x3 < x4 ...; tops over bottoms
    "fence": (("k",), lambda k: _bipartite(k, lambda t, b, h: b - t in (0, 1))),
    # each bottom below every top but a cyclically shifted partner; tops over
    # bottoms
    "crown": (("k",), lambda k: _bipartite(k, lambda t, b, h: t != (b + 1) % h)),
    # the linear order with x1 on top, already total
    "chain": (("n",), lambda n: _xs(n, int.__le__, int.__neg__)),
    # no two elements comparable; one block
    "equality": (("n",), lambda n: _xs(n, int.__eq__, lambda i: 0)),
    # every two elements indifferent; one block
    "indifferent": (("n",), lambda n: _xs(n, lambda a, b: True, lambda i: 0)),
}


@record
class FamilySpec:
    """A family kind plus its integer parameters; builds the order and, where
    the answer has a closed form, the expected best approximation."""

    kind: str
    params: dict[str, int]

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise BadParameter(f"family kind must be a string, got {self.kind!r}")
        if self.kind not in FAMILIES:
            raise BadParameter(f"unknown family kind: {self.kind!r}; known "
                               f"kinds: {', '.join(FAMILIES)}")
        if not isinstance(self.params, dict):
            raise BadParameter(f"{self.kind} parameters must be a dict, got "
                               f"{self.params!r}")
        if not all(isinstance(name, str) for name in self.params):
            raise BadParameter(f"{self.kind} parameter names must be strings, "
                               f"got {tuple(self.params)!r}")
        expected = FAMILIES[self.kind][0]
        given = tuple(sorted(self.params))
        if given != tuple(sorted(expected)):
            raise BadParameter(f"{self.kind} takes parameters {expected}, "
                               f"got {given}")
        # no family has fewer points than any parameter, so a parameter
        # outside 1..MAX_GROUND is refused here, before a point is drawn
        for name in expected:
            value = self.params[name]
            if not isinstance(value, int) or isinstance(value, bool):
                raise BadParameter(f"{self.kind} parameter {name} must be an "
                                   f"integer, got {value!r}")
            if not 1 <= value <= MAX_GROUND:
                raise BadParameter(f"{self.kind} parameter {name} must be in "
                                   f"1..{MAX_GROUND}, got {value}")
        object.__setattr__(self, "params", dict(self.params))
        self._drawn  # draw once, now: what build() would refuse is refused here

    @lazy
    def _drawn(self):
        # the checks that need drawing: a malformed family is refused by its
        # function, an oversized one after MAX_GROUND + 1 points
        names, describe = FAMILIES[self.kind]
        args = [self.params[name] for name in names]
        points, label, ge, rank = describe(*args)
        points = list(islice(points, MAX_GROUND + 1))
        if len(points) > MAX_GROUND:
            raise BadParameter(f"{self.kind} {dict(zip(names, args))} has more "
                               f"than {MAX_GROUND} elements")
        return GroundSet(tuple(map(label, points))), points, ge, rank

    def build(self) -> Preorder:
        ground, points, ge, _ = self._drawn
        return Preorder(ground, tuple(
            mask_of(j for j, b in enumerate(points) if ge(a, b)) for a in points))

    def expected_bca(self) -> TotalPreorder:
        """Closed-form best approximation for this family."""
        ground, points, _, rank = self._drawn
        ranks = [rank(point) for point in points]
        return TotalPreorder(ground, tuple(
            mask_of(i for i, r in enumerate(ranks) if r == top)
            for top in sorted(set(ranks), reverse=True)))
